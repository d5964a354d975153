//! FinFET instances: a parameter card plus quantized width (fin count).

use crate::{DeviceError, DeviceParams, IvModel};
use sram_units::{Current, Voltage};

/// Channel polarity of a FinFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// N-channel device (pull-down / access transistors).
    N,
    /// P-channel device (pull-up / precharge transistors).
    P,
}

impl core::fmt::Display for Polarity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Polarity::N => f.write_str("NFET"),
            Polarity::P => f.write_str("PFET"),
        }
    }
}

/// Threshold-voltage flavor of the 7 nm library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VtFlavor {
    /// Low threshold voltage: fast, leaky. Used for all peripherals.
    Lvt,
    /// High threshold voltage: ~2× lower ION, ~20× lower IOFF. The paper's
    /// candidate for the cell transistors.
    Hvt,
}

impl core::fmt::Display for VtFlavor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VtFlavor::Lvt => f.write_str("LVT"),
            VtFlavor::Hvt => f.write_str("HVT"),
        }
    }
}

/// A FinFET instance: a device card with a quantized width.
///
/// FinFET width quantization means drive strength only scales with the
/// integer number of fins — the property that forces the paper to treat
/// `N_pre` and `N_wr` as discrete architecture-level optimization
/// variables rather than continuously sizing the periphery.
///
/// # Examples
///
/// ```
/// use sram_device::{DeviceLibrary, FinFet, VtFlavor};
/// use sram_units::Voltage;
///
/// let lib = DeviceLibrary::sevennm();
/// let one_fin = FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1);
/// let four_fin = FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 4);
///
/// let v = Voltage::from_millivolts(450.0);
/// let ratio = four_fin.ids(v, v).amps() / one_fin.ids(v, v).amps();
/// assert!((ratio - 4.0).abs() < 1e-9); // exactly 4x: width quantization
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FinFet {
    params: DeviceParams,
    fins: u32,
    delta_vt: Voltage,
}

impl FinFet {
    /// Creates a FinFET with `fins` parallel fins.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    #[expect(clippy::expect_used, reason = "documented panic contract")]
    pub fn new(params: DeviceParams, fins: u32) -> Self {
        Self::try_new(params, fins).expect("fin count must be at least 1")
    }

    /// Fallible constructor: [`DeviceError::ZeroFins`] when `fins == 0`,
    /// or a [`DeviceParams::validate`] failure.
    fn try_new(params: DeviceParams, fins: u32) -> Result<Self, DeviceError> {
        if fins == 0 {
            return Err(DeviceError::ZeroFins);
        }
        params.validate()?;
        Ok(Self {
            params,
            fins,
            delta_vt: Voltage::ZERO,
        })
    }

    /// Returns a copy with an additional threshold shift (Monte Carlo
    /// process variation).
    #[must_use]
    pub fn with_vt_shift(mut self, delta_vt: Voltage) -> Self {
        self.delta_vt = delta_vt;
        self
    }

    /// The device parameter card.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// Number of fins (quantized width).
    #[must_use]
    pub fn fins(&self) -> u32 {
        self.fins
    }

    /// Channel polarity.
    #[must_use]
    pub fn polarity(&self) -> Polarity {
        self.params.polarity
    }

    /// Drain current for polarity-normalized terminal voltages.
    ///
    /// For N-type devices `vgs`/`vds` are the usual gate-source and
    /// drain-source voltages and positive current flows drain→source.
    /// For P-type devices pass **source-referenced magnitudes** `vsg`/`vsd`
    /// and the returned positive current flows source→drain. Use
    /// [`FinFet::current_into_drain_with_partials`] for raw node voltages.
    #[must_use]
    pub fn ids(&self, vgs: Voltage, vds: Voltage) -> Current {
        let model = IvModel::new(&self.params, self.delta_vt);
        model.ids_per_fin(vgs, vds) * f64::from(self.fins)
    }

    /// Current flowing *into the drain terminal* given absolute node
    /// voltages `(vg, vd, vs)`, handling polarity internally, together
    /// with its partials `[∂I/∂Vg, ∂I/∂Vd, ∂I/∂Vs]` in siemens, from one
    /// compact-model evaluation — the MNA stamp of one Newton iteration.
    ///
    /// This is the sign convention the MNA stamping in `sram-spice` uses:
    /// for an NFET in normal operation the current is positive (the drain
    /// sinks current); for a PFET pulling its drain high it is negative.
    ///
    /// Only voltage differences matter, so `∂I/∂Vs = −(∂I/∂Vg + ∂I/∂Vd)`.
    #[must_use]
    pub fn current_into_drain_with_partials(
        &self,
        vg: Voltage,
        vd: Voltage,
        vs: Voltage,
    ) -> (Current, [f64; 3]) {
        let model = IvModel::new(&self.params, self.delta_vt);
        let fins = f64::from(self.fins);
        // A PFET's current is the negated N-referenced model at (Vsg, Vsd);
        // the two sign flips cancel in its gate and drain partials.
        let (i, d_vg, d_vd) = match self.params.polarity {
            Polarity::N => {
                let (i, gm, gds) = model.ids_with_partials_per_fin(vg - vs, vd - vs);
                (i * fins, gm * fins, gds * fins)
            }
            Polarity::P => {
                let (i, gm, gds) = model.ids_with_partials_per_fin(vs - vg, vs - vd);
                (-(i * fins), gm * fins, gds * fins)
            }
        };
        (i, [d_vg, d_vd, -(d_vg + d_vd)])
    }

    /// Total gate capacitance (`fins × c_gate_per_fin`).
    #[must_use]
    pub fn c_gate(&self) -> sram_units::Capacitance {
        self.params.c_gate_per_fin * f64::from(self.fins)
    }

    /// Total drain capacitance (`fins × c_drain_per_fin`).
    #[must_use]
    pub fn c_drain(&self) -> sram_units::Capacitance {
        self.params.c_drain_per_fin * f64::from(self.fins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{sevennm_card, NOMINAL_VDD};

    fn nfet(fins: u32) -> FinFet {
        FinFet::new(sevennm_card(Polarity::N, VtFlavor::Hvt), fins)
    }

    fn pfet(fins: u32) -> FinFet {
        FinFet::new(sevennm_card(Polarity::P, VtFlavor::Hvt), fins)
    }

    #[test]
    fn zero_fins_rejected() {
        let err = FinFet::try_new(sevennm_card(Polarity::N, VtFlavor::Lvt), 0).unwrap_err();
        assert_eq!(err, DeviceError::ZeroFins);
    }

    #[test]
    fn current_scales_exactly_with_fins() {
        let v = Voltage::from_volts(0.45);
        let i1 = nfet(1).ids(v, v).amps();
        let i3 = nfet(3).ids(v, v).amps();
        assert!((i3 / i1 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn nfet_drain_sinks_current_when_on() {
        let (d, _) = nfet(1).current_into_drain_with_partials(
            Voltage::from_volts(0.45), // gate high
            Voltage::from_volts(0.45), // drain high
            Voltage::ZERO,             // source at ground
        );
        assert!(d.amps() > 0.0);
    }

    #[test]
    fn pfet_drain_sources_current_when_on() {
        let (d, _) = pfet(1).current_into_drain_with_partials(
            Voltage::ZERO,             // gate low: PFET on
            Voltage::ZERO,             // drain at ground
            Voltage::from_volts(0.45), // source at Vdd
        );
        assert!(d.amps() < 0.0, "PFET should push current out of its drain");
    }

    #[test]
    fn off_pfet_leaks_little() {
        let on = pfet(1)
            .current_into_drain_with_partials(
                Voltage::ZERO,
                Voltage::ZERO,
                Voltage::from_volts(0.45),
            )
            .0
            .amps()
            .abs();
        let off = pfet(1)
            .current_into_drain_with_partials(
                Voltage::from_volts(0.45),
                Voltage::ZERO,
                Voltage::from_volts(0.45),
            )
            .0
            .amps()
            .abs();
        assert!(off < on / 1e3);
    }

    #[test]
    fn capacitances_scale_with_fins() {
        let c1 = nfet(1).c_gate();
        let c5 = nfet(5).c_gate();
        assert!((c5 / c1 - 5.0).abs() < 1e-12);
    }

    /// ON current (`Vgs = Vds = Vdd`) and OFF current (`Vgs = 0`,
    /// `Vds = Vdd`) of a single-fin NFET.
    fn on_off(flavor: VtFlavor, vdd: Voltage) -> (f64, f64) {
        let fet = FinFet::new(sevennm_card(Polarity::N, flavor), 1);
        (fet.ids(vdd, vdd).amps(), fet.ids(Voltage::ZERO, vdd).amps())
    }

    // Section 2: against LVT, HVT has 2× lower ION, 20× lower IOFF and a
    // 10× higher ION/IOFF.
    #[test]
    fn hvt_has_roughly_half_the_on_current() {
        let r = on_off(VtFlavor::Lvt, NOMINAL_VDD).0 / on_off(VtFlavor::Hvt, NOMINAL_VDD).0;
        assert!(r > 1.6 && r < 2.4, "ION(LVT)/ION(HVT) = {r}");
    }

    #[test]
    fn hvt_has_roughly_twenty_x_lower_off_current() {
        let r = on_off(VtFlavor::Lvt, NOMINAL_VDD).1 / on_off(VtFlavor::Hvt, NOMINAL_VDD).1;
        assert!(r > 14.0 && r < 28.0, "IOFF(LVT)/IOFF(HVT) = {r}");
    }

    #[test]
    fn hvt_has_roughly_ten_x_better_on_off_ratio() {
        let ratio = |flavor| {
            let (on, off) = on_off(flavor, NOMINAL_VDD);
            on / off
        };
        let r = ratio(VtFlavor::Hvt) / ratio(VtFlavor::Lvt);
        assert!(r > 6.0 && r < 16.0, "(ION/IOFF) HVT / LVT = {r}");
    }

    #[test]
    fn off_current_grows_with_supply() {
        let low = on_off(VtFlavor::Hvt, Voltage::from_millivolts(100.0)).1;
        let high = on_off(VtFlavor::Hvt, NOMINAL_VDD).1;
        assert!(high > low); // DIBL + saturation factor
    }

    #[test]
    fn vt_shift_reduces_on_current() {
        let v = Voltage::from_volts(0.45);
        let nominal = nfet(1);
        let shifted = nfet(1).with_vt_shift(Voltage::from_millivolts(50.0));
        assert!(shifted.ids(v, v) < nominal.ids(v, v));
    }

    /// The closed-form α-power current into the drain at node voltages
    /// `(vg, vd, vs)`, written out with the float operations the model
    /// used before it carried partials, together with its softplus
    /// argument `x` (after any source/drain swap) and whether the swap
    /// happened.
    fn closed_form(fet: &FinFet, vg: f64, vd: f64, vs: f64) -> (f64, f64, bool) {
        let p = fet.params();
        let (vgs, vds) = match p.polarity {
            Polarity::N => (vg - vs, vd - vs),
            Polarity::P => (vs - vg, vs - vd),
        };
        let reversed = vds < 0.0;
        let (vgs, vds) = if reversed {
            (vgs - vds, -vds)
        } else {
            (vgs, vds)
        };
        let s = p.subthreshold_slope.volts() * p.alpha / core::f64::consts::LN_10;
        let vt_eff = p.vt.volts() + fet.delta_vt.volts() - p.dibl * vds;
        let x = (vgs - vt_eff) / s;
        let softplus = if x > 30.0 {
            x
        } else if x < -30.0 {
            x.exp()
        } else {
            x.exp().ln_1p()
        };
        let saturation = 1.0 - (-vds / p.v_sat.volts()).exp();
        let clm = 1.0 + p.lambda * vds;
        let per_fin = p.k_per_fin * (s * softplus).powf(p.alpha) * saturation * clm;
        let per_fin = if reversed { -per_fin } else { per_fin };
        let i = per_fin * f64::from(fet.fins());
        let i = match p.polarity {
            Polarity::N => i,
            Polarity::P => -i,
        };
        (i, x, reversed)
    }

    #[test]
    fn analytic_partials_match_central_differences() {
        // Node voltages that reach both softplus clamps (|x| > 30 needs
        // |Vgs − Vt| above ~1.07 V) and both signs of Vds.
        let volts = [-1.4, -0.3, 0.0, 0.12, 0.45, 0.7, 1.6];
        let h = 1e-7;
        let v = Voltage::from_volts;
        let (mut above, mut below, mut reversed) = (0, 0, 0);
        for polarity in [Polarity::N, Polarity::P] {
            for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
                for shift_mv in [-50.0, 0.0, 50.0] {
                    let fet = FinFet::new(sevennm_card(polarity, flavor), 2)
                        .with_vt_shift(Voltage::from_millivolts(shift_mv));
                    let at = |g, d, s| {
                        fet.current_into_drain_with_partials(v(g), v(d), v(s))
                            .0
                            .amps()
                    };
                    for (vg, vd, vs) in volts
                        .iter()
                        .flat_map(|&g| volts.iter().map(move |&d| (g, d)))
                        .flat_map(|(g, d)| volts.iter().map(move |&s| (g, d, s)))
                    {
                        let case =
                            format!("{polarity} {flavor} {shift_mv} mV at ({vg}, {vd}, {vs})");
                        let (i, partials) =
                            fet.current_into_drain_with_partials(v(vg), v(vd), v(vs));
                        let (expected, x, swapped) = closed_form(&fet, vg, vd, vs);
                        assert_eq!(i.amps().to_bits(), expected.to_bits(), "{case}");
                        let numeric = [
                            (at(vg + h, vd, vs) - at(vg - h, vd, vs)) / (2.0 * h),
                            (at(vg, vd + h, vs) - at(vg, vd - h, vs)) / (2.0 * h),
                            (at(vg, vd, vs + h) - at(vg, vd, vs - h)) / (2.0 * h),
                        ];
                        for (k, (a, n)) in partials.iter().zip(numeric).enumerate() {
                            let tolerance = 1e-5 * a.abs().max(n.abs()) + 1e-12;
                            assert!(
                                (a - n).abs() <= tolerance,
                                "{case}: partial {k} analytic {a:e} vs numeric {n:e}"
                            );
                        }
                        above += usize::from(x > 30.0);
                        below += usize::from(x < -30.0);
                        reversed += usize::from(swapped);
                    }
                }
            }
        }
        assert!(
            above > 0 && below > 0 && reversed > 0,
            "{above} {below} {reversed}"
        );
    }

    #[test]
    fn display_of_enums() {
        assert_eq!(Polarity::N.to_string(), "NFET");
        assert_eq!(VtFlavor::Hvt.to_string(), "HVT");
    }
}
