//! Characterization snapshots: the look-up tables consumed by the array
//! model and the optimizer.
//!
//! The paper characterizes cells once with SPICE and stores the results in
//! look-up tables so the exhaustive search never re-simulates. A
//! [`CellCharacterization`] is that artifact. Two sources exist:
//!
//! * [`CellCharacterization::characterize`] — measured from our simulator
//!   (the full-stack reproduction);
//! * [`CellCharacterization::paper_hvt`] / [`paper_lvt`] — built directly
//!   from every constant the paper publishes (read-current fit, leakage
//!   anchors, yield-crossing rail voltages), giving a paper-faithful mode
//!   for reproducing the headline tables independently of our device
//!   calibration.
//!
//! [`paper_lvt`]: CellCharacterization::paper_lvt

use crate::{AssistVoltages, CellCharacterizer, CellError, Lut1d};
use sram_device::VtFlavor;
use sram_faults::{ordered_map, CancelToken};
use sram_units::{Current, Power, Time, Voltage};

/// Grid specification for building a characterization snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationGrid {
    /// Cell supply rail `V_DDC` used for the read tables.
    pub vddc: Voltage,
    /// Asserted wordline level used for the write scalars.
    pub vwl: Voltage,
    /// `V_SSC` sample points for the read-current / RSNM tables.
    pub vssc_values: Vec<Voltage>,
    /// `V_WL` sample points for the write-delay table.
    pub vwl_values: Vec<Voltage>,
}

impl CharacterizationGrid {
    /// The paper's search grid: `V_SSC ∈ {0, −10 mV, …, −240 mV}` (coarse
    /// 30 mV steps here — the tables interpolate linearly) and `V_WL`
    /// around the nominal-to-overdrive range.
    #[must_use]
    pub fn paper_default(vddc: Voltage, vwl: Voltage) -> Self {
        let vssc_values = (0..=8)
            .map(|k| Voltage::from_millivolts(-30.0 * f64::from(k)))
            .collect();
        let vwl_values = (0..=6)
            .map(|k| Voltage::from_millivolts(450.0 + 30.0 * f64::from(k)))
            .collect();
        Self {
            vddc,
            vwl,
            vssc_values,
            vwl_values,
        }
    }
}

/// Cell look-up tables: everything the array model and optimizer need,
/// with no further circuit simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCharacterization {
    flavor: VtFlavor,
    vdd: Voltage,
    vddc: Voltage,
    vwl: Voltage,
    leakage: Power,
    hsnm: Voltage,
    /// RSNM (volts) vs `V_SSC` (volts), at `vddc`.
    rsnm_vs_vssc: Lut1d,
    /// Read current (amps) vs `V_SSC` (volts), at `vddc`.
    read_current_vs_vssc: Lut1d,
    /// Write margin at `vwl`.
    wm: Voltage,
    /// Cell write delay (seconds) vs `V_WL` (volts).
    write_delay_vs_vwl: Lut1d,
}

impl CellCharacterization {
    /// Measures a snapshot from the simulator. Its independent
    /// measurements run on [`ordered_map`]'s workers, so the snapshot
    /// and the error reported are those of one serial loop over them.
    ///
    /// # Errors
    ///
    /// Propagates characterization failures. A collapsed RSNM butterfly at
    /// some `V_SSC` is recorded as zero margin rather than failing the
    /// whole snapshot.
    pub fn characterize(
        characterizer: &CellCharacterizer,
        grid: &CharacterizationGrid,
    ) -> Result<Self, CellError> {
        sram_probe::probe_inc!("cell.characterizations");
        let _span = sram_probe::probe_span!("cell.characterize_ns");
        let _trace = sram_probe::trace_span!("cell.characterize");
        // Chaos hooks: `cell.slow` stretches this snapshot by the plan's
        // injected latency; `cell.characterize_nan` poisons it outright —
        // the transient measurement failure the retry layer must absorb.
        sram_faults::maybe_sleep("cell.slow");
        if sram_faults::should_fire("cell.characterize_nan") {
            return Err(CellError::MeasurementFailed {
                what: "characterization",
                reason: "injected NaN measurement (fault plan)".to_string(),
            });
        }
        let vdd = characterizer.vdd();
        let nominal = AssistVoltages::nominal(vdd);
        let mut vssc_sorted = grid.vssc_values.clone();
        vssc_sorted.sort_by(|a, b| a.volts().total_cmp(&b.volts()));
        let mut vwl_sorted = grid.vwl_values.clone();
        vwl_sorted.sort_by(|a, b| a.volts().total_cmp(&b.volts()));

        let mut measurements = vec![Measurement::Leakage, Measurement::Hsnm];
        measurements.extend(vssc_sorted.into_iter().map(Measurement::Read));
        measurements.push(Measurement::WriteMargin);
        measurements.extend(vwl_sorted.into_iter().map(Measurement::WriteDelay));
        let values = ordered_map(&measurements, &CancelToken::never(), |m| {
            m.measure(characterizer, nominal, grid)
        })?;

        let (mut leakage, mut hsnm, mut wm) = (Power::ZERO, Voltage::ZERO, Voltage::ZERO);
        let (mut rsnm_pts, mut iread_pts, mut wd_pts) = (Vec::new(), Vec::new(), Vec::new());
        for (m, [value, current]) in measurements.into_iter().zip(values) {
            match m {
                Measurement::Leakage => leakage = Power::from_watts(value),
                Measurement::Hsnm => hsnm = Voltage::from_volts(value),
                Measurement::Read(vssc) => {
                    rsnm_pts.push((vssc.volts(), value));
                    iread_pts.push((vssc.volts(), current));
                }
                Measurement::WriteMargin => wm = Voltage::from_volts(value),
                Measurement::WriteDelay(vwl) => wd_pts.push((vwl.volts(), value)),
            }
        }

        Ok(Self {
            flavor: characterizer.cell().flavor(),
            vdd,
            vddc: grid.vddc,
            vwl: grid.vwl,
            leakage,
            hsnm,
            rsnm_vs_vssc: Lut1d::new(rsnm_pts)?,
            read_current_vs_vssc: Lut1d::new(iread_pts)?,
            wm,
            write_delay_vs_vwl: Lut1d::new(wd_pts)?,
        })
    }

    /// Paper-faithful HVT snapshot at supply `vdd`, built from published
    /// constants: `I_read = 9.5e-5 · (V_DDC − V_SSC − 0.335)^1.3`,
    /// leakage 0.082 nW, RSNM yield crossing at `V_DDC = 550 mV`, WM yield
    /// crossing at `V_WL = 540 mV`, cell write delay ≈ 1.5 ps.
    #[must_use]
    pub fn paper_hvt(vdd: Voltage) -> Self {
        Self::paper_model(
            VtFlavor::Hvt,
            vdd,
            Voltage::from_millivolts(550.0),
            Voltage::from_millivolts(540.0),
            PaperCellModel::hvt(),
        )
    }

    /// Paper-faithful LVT snapshot at supply `vdd`: same model with the
    /// LVT threshold (83 mV lower), 1.692 nW leakage, RSNM crossing at
    /// `V_DDC = 640 mV` and WM crossing at `V_WL = 490 mV`.
    #[must_use]
    pub fn paper_lvt(vdd: Voltage) -> Self {
        Self::paper_model(
            VtFlavor::Lvt,
            vdd,
            Voltage::from_millivolts(640.0),
            Voltage::from_millivolts(490.0),
            PaperCellModel::lvt(),
        )
    }

    /// Paper-faithful snapshot with explicit rail choices (`vddc`, `vwl`)
    /// for one flavor — used by the optimizer's M1 policy where the rail
    /// is `max(V_DDC, V_WL)` rather than each technique's own minimum.
    #[must_use]
    pub fn paper_with_rails(flavor: VtFlavor, vdd: Voltage, vddc: Voltage, vwl: Voltage) -> Self {
        let model = match flavor {
            VtFlavor::Hvt => PaperCellModel::hvt(),
            VtFlavor::Lvt => PaperCellModel::lvt(),
        };
        Self::paper_model(flavor, vdd, vddc, vwl, model)
    }

    fn paper_model(
        flavor: VtFlavor,
        vdd: Voltage,
        vddc: Voltage,
        vwl: Voltage,
        m: PaperCellModel,
    ) -> Self {
        let delta = 0.35 * vdd.volts();
        // RSNM: crosses delta exactly at the published V_DDC; slope from
        // the published 1.9x HVT/LVT ratio at nominal (0.55 V/V fits both
        // flavors, see DESIGN.md). Negative Gnd slightly helps RSNM until
        // about -240 mV ("below -240 mV RSNM degrades"): +0.05 V/V.
        let rsnm = |vssc: f64| -> f64 {
            (delta + 0.55 * (vddc.volts() - m.rsnm_crossing_vddc) + 0.05 * (-vssc)).max(0.0)
        };
        let iread = |vssc: f64| -> f64 {
            let ov = (vddc.volts() - vssc - m.vt).max(MIN_OVERDRIVE_VOLTS);
            m.b * ov.powf(m.a)
        };
        let vssc_grid: Vec<f64> = (0..=24).map(|k| -0.240 + 0.010 * f64::from(k)).collect();
        let rsnm_pts: Vec<(f64, f64)> = vssc_grid.iter().map(|&v| (v, rsnm(v))).collect();
        let iread_pts: Vec<(f64, f64)> = vssc_grid.iter().map(|&v| (v, iread(v))).collect();
        #[expect(
            clippy::expect_used,
            reason = "the grid is generated strictly ascending above"
        )]
        let rsnm_vs_vssc = Lut1d::new(rsnm_pts).expect("grid sorted");
        #[expect(clippy::expect_used, reason = "same generated ascending grid")]
        let read_current_vs_vssc = Lut1d::new(iread_pts).expect("grid sorted");

        // WM crosses delta exactly at the published V_WL; slope ~0.9 V/V
        // (the WM definition is nearly 1:1 in the applied WL level).
        let wm = Voltage::from_volts(delta + 0.9 * (vwl.volts() - m.wm_crossing_vwl));

        // Cell write delay ~1.5 ps at the crossing V_WL, improving with
        // overdrive (Fig. 5): quadratic in the overdrive ratio.
        let vwl_grid: Vec<f64> = (0..=10).map(|k| 0.400 + 0.030 * f64::from(k)).collect();
        #[expect(
            clippy::expect_used,
            reason = "the grid is generated strictly ascending above"
        )]
        let write_delay_vs_vwl = Lut1d::new(
            vwl_grid
                .iter()
                .map(|&v| {
                    (
                        v,
                        PAPER_CELL_WRITE_DELAY_SECONDS * (m.wm_crossing_vwl / v).powi(2),
                    )
                })
                .collect(),
        )
        .expect("grid sorted");

        Self {
            flavor,
            vdd,
            vddc,
            vwl,
            leakage: m.leakage,
            hsnm: Voltage::from_volts(m.hsnm_fraction * vdd.volts()),
            rsnm_vs_vssc,
            read_current_vs_vssc,
            wm,
            write_delay_vs_vwl,
        }
    }

    /// Cell flavor.
    #[must_use]
    pub fn flavor(&self) -> VtFlavor {
        self.flavor
    }

    /// Array supply voltage.
    #[must_use]
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Cell supply rail the read tables were characterized at.
    #[must_use]
    pub fn vddc(&self) -> Voltage {
        self.vddc
    }

    /// Wordline level the write scalars were characterized at.
    #[must_use]
    pub fn vwl(&self) -> Voltage {
        self.vwl
    }

    /// Hold leakage power `P_leak,sram` (Eq. 4).
    #[must_use]
    pub fn leakage(&self) -> Power {
        self.leakage
    }

    /// Hold static noise margin.
    #[must_use]
    pub fn hsnm(&self) -> Voltage {
        self.hsnm
    }

    /// Read static noise margin at cell ground `vssc`.
    #[must_use]
    pub fn rsnm(&self, vssc: Voltage) -> Voltage {
        Voltage::from_volts(self.rsnm_vs_vssc.eval(vssc.volts()))
    }

    /// Cell read current at cell ground `vssc`.
    #[must_use]
    pub fn read_current(&self, vssc: Voltage) -> Current {
        Current::from_amps(self.read_current_vs_vssc.eval(vssc.volts()))
    }

    /// Write margin at the characterized `V_WL`.
    #[must_use]
    pub fn write_margin(&self) -> Voltage {
        self.wm
    }

    /// Cell write delay at wordline level `vwl` (Table 3's
    /// `D_write_sram(V_WL)`).
    #[must_use]
    pub fn write_delay(&self, vwl: Voltage) -> Time {
        Time::from_seconds(self.write_delay_vs_vwl.eval(vwl.volts()))
    }

    /// Minimum of the three margins at cell ground `vssc` — the quantity
    /// the optimizer constrains to `≥ δ`.
    #[must_use]
    pub fn min_margin(&self, vssc: Voltage) -> Voltage {
        self.hsnm.min(self.rsnm(vssc)).min(self.wm)
    }

    /// Returns a copy with the hold leakage power replaced — used to
    /// transplant an independently measured leakage (e.g. at a different
    /// temperature) into a paper-constant snapshot.
    #[must_use]
    pub fn with_leakage(mut self, leakage: Power) -> Self {
        self.leakage = leakage;
        self
    }

    /// Returns a copy with every margin table derated by `k` standard
    /// deviations of process variation — the bridge from the paper's
    /// deterministic `δ` rule to its "accurate" `μ − kσ ≥ 0` constraint.
    ///
    /// The per-margin sigmas come from one Monte Carlo run (e.g.
    /// [`crate::YieldAnalyzer`]) at a representative bias; derating the
    /// look-up tables keeps the optimizer loop table-driven (no MC inside
    /// the search) while the constraint `min_margin ≥ 0` on the derated
    /// snapshot approximates `min(μ − kσ) ≥ 0`.
    #[must_use]
    pub fn derated(
        &self,
        k: f64,
        hsnm_sigma: Voltage,
        rsnm_sigma: Voltage,
        wm_sigma: Voltage,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "x-breakpoints are copied from an already-valid table"
        )]
        let shift_lut = |lut: &Lut1d, sigma: Voltage| {
            Lut1d::new(
                lut.breakpoints()
                    .iter()
                    .map(|&(x, y)| (x, (y - k * sigma.volts()).max(0.0)))
                    .collect(),
            )
            .expect("breakpoints unchanged")
        };
        Self {
            hsnm: (self.hsnm - hsnm_sigma * k).max(Voltage::ZERO),
            rsnm_vs_vssc: shift_lut(&self.rsnm_vs_vssc, rsnm_sigma),
            wm: (self.wm - wm_sigma * k).max(Voltage::ZERO),
            read_current_vs_vssc: self.read_current_vs_vssc.clone(),
            write_delay_vs_vwl: self.write_delay_vs_vwl.clone(),
            ..*self
        }
    }
}

/// One of a simulated snapshot's independent measurements, in the
/// order a serial loop takes them: leakage, HSNM, RSNM and read current
/// per `V_SSC`, WM, write delay per `V_WL`.
#[derive(Debug, Clone, Copy)]
enum Measurement {
    Leakage,
    Hsnm,
    Read(Voltage),
    WriteMargin,
    WriteDelay(Voltage),
}

impl Measurement {
    /// The measured magnitude in its base unit and, for a read point,
    /// the read current in amps (0 otherwise). A collapsed RSNM
    /// butterfly reads as zero margin.
    fn measure(
        self,
        characterizer: &CellCharacterizer,
        nominal: AssistVoltages,
        grid: &CharacterizationGrid,
    ) -> Result<[f64; 2], CellError> {
        Ok(match self {
            Self::Leakage => [characterizer.leakage_power(&nominal)?.watts(), 0.0],
            Self::Hsnm => [characterizer.hold_snm(&nominal)?.volts(), 0.0],
            Self::Read(vssc) => {
                let bias = nominal.with_vddc(grid.vddc).with_vssc(vssc);
                let rsnm = match characterizer.read_snm(&bias) {
                    Ok(v) => v.volts(),
                    Err(CellError::MeasurementFailed { .. }) => 0.0,
                    Err(e) => return Err(e),
                };
                [rsnm, characterizer.read_current(&bias)?.amps()]
            }
            Self::WriteMargin => [
                characterizer
                    .write_margin(&nominal.with_vwl(grid.vwl))?
                    .volts(),
                0.0,
            ],
            Self::WriteDelay(vwl) => [
                characterizer.write_delay(&nominal.with_vwl(vwl))?.seconds(),
                0.0,
            ],
        })
    }
}

/// Read-current fit prefactor `b` (amps at 1 V overdrive) in the paper's
/// `I_read = b · (V_DDC − V_SSC − V_t)^a` fit — shared by both flavors.
const PAPER_IREAD_PREFACTOR_AMPS: f64 = 9.5e-5;
/// Read-current fit exponent `a` (dimensionless).
const PAPER_IREAD_EXPONENT: f64 = 1.3;
/// Effective threshold `V_t` of the HVT fit, volts.
const PAPER_HVT_VT_VOLTS: f64 = 0.335;
/// Effective threshold `V_t` of the LVT fit, volts (83 mV below HVT).
const PAPER_LVT_VT_VOLTS: f64 = 0.252;
/// Overdrive floor (volts) keeping the fit's `powf` off negative bases
/// when a deep `V_SSC` pushes the cell below threshold.
const MIN_OVERDRIVE_VOLTS: f64 = 1e-4;
/// Cell write delay (seconds) at the crossing `V_WL` — "≈ 1.5 ps".
const PAPER_CELL_WRITE_DELAY_SECONDS: f64 = 1.5e-12;

struct PaperCellModel {
    b: f64,
    a: f64,
    vt: f64,
    leakage: Power,
    hsnm_fraction: f64,
    rsnm_crossing_vddc: f64,
    wm_crossing_vwl: f64,
}

impl PaperCellModel {
    /// The published HVT fit: 0.082 nW leakage, RSNM yield crossing at
    /// `V_DDC = 550 mV`, WM crossing at `V_WL = 540 mV`.
    fn hvt() -> Self {
        Self {
            b: PAPER_IREAD_PREFACTOR_AMPS,
            a: PAPER_IREAD_EXPONENT,
            vt: PAPER_HVT_VT_VOLTS,
            leakage: Power::from_nanowatts(0.082),
            hsnm_fraction: 0.45,
            rsnm_crossing_vddc: 0.550,
            wm_crossing_vwl: 0.540,
        }
    }

    /// The published LVT fit: 1.692 nW leakage, RSNM crossing at
    /// `V_DDC = 640 mV`, WM crossing at `V_WL = 490 mV`.
    fn lvt() -> Self {
        Self {
            b: PAPER_IREAD_PREFACTOR_AMPS,
            a: PAPER_IREAD_EXPONENT,
            vt: PAPER_LVT_VT_VOLTS,
            leakage: Power::from_nanowatts(1.692),
            hsnm_fraction: 0.37,
            rsnm_crossing_vddc: 0.640,
            wm_crossing_vwl: 0.490,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vdd() -> Voltage {
        Voltage::from_millivolts(450.0)
    }

    #[test]
    fn paper_hvt_anchors() {
        let c = CellCharacterization::paper_hvt(vdd());
        assert_eq!(c.flavor(), VtFlavor::Hvt);
        assert!((c.leakage().nanowatts() - 0.082).abs() < 1e-9);
        // RSNM at V_SSC = 0 equals delta (yield crossing at 550 mV).
        let delta = 0.35 * 0.45;
        assert!((c.rsnm(Voltage::ZERO).volts() - delta).abs() < 1e-9);
        // Read-current fit at V_SSC = -240 mV: b*(0.455)^1.3.
        let i = c.read_current(Voltage::from_millivolts(-240.0));
        let expect = 9.5e-5 * (0.550 + 0.240 - 0.335f64).powf(1.3);
        assert!((i.amps() / expect - 1.0).abs() < 1e-6);
        // WM crossing at 540 mV.
        assert!((c.write_margin().volts() - delta).abs() < 1e-9);
    }

    #[test]
    fn paper_lvt_anchors() {
        let c = CellCharacterization::paper_lvt(vdd());
        assert!((c.leakage().nanowatts() - 1.692).abs() < 1e-9);
        let ratio = c.leakage().watts() / CellCharacterization::paper_hvt(vdd()).leakage().watts();
        assert!((ratio - 20.6).abs() < 1.0, "leakage ratio {ratio}");
    }

    #[test]
    fn rsnm_ratio_at_nominal_matches_fig3a() {
        // With no-assist rails (V_DDC = Vdd), RSNM(HVT)/RSNM(LVT) ~ 1.9x.
        let hvt = CellCharacterization::paper_with_rails(VtFlavor::Hvt, vdd(), vdd(), vdd());
        let lvt = CellCharacterization::paper_with_rails(VtFlavor::Lvt, vdd(), vdd(), vdd());
        let r = hvt.rsnm(Voltage::ZERO).volts() / lvt.rsnm(Voltage::ZERO).volts();
        assert!(r > 1.5 && r < 2.5, "RSNM HVT/LVT = {r} (paper: 1.9x)");
    }

    #[test]
    fn negative_gnd_raises_read_current_in_tables() {
        let c = CellCharacterization::paper_hvt(vdd());
        let base = c.read_current(Voltage::ZERO);
        let assisted = c.read_current(Voltage::from_millivolts(-240.0));
        let gain = assisted / base;
        // The fit formula gives 2.65x (the text says 4.3x; see
        // EXPERIMENTS.md for the discrepancy note).
        assert!(gain > 2.0 && gain < 3.5, "I_read gain = {gain:.2}");
    }

    #[test]
    fn min_margin_takes_the_weakest() {
        let c = CellCharacterization::paper_hvt(vdd());
        let m = c.min_margin(Voltage::ZERO);
        assert!(m <= c.hsnm());
        assert!(m <= c.rsnm(Voltage::ZERO));
        assert!(m <= c.write_margin());
    }

    #[test]
    fn derating_shrinks_margins_only() {
        let base = CellCharacterization::paper_hvt(vdd());
        let sigma = Voltage::from_millivolts(12.0);
        let derated = base.derated(3.0, sigma, sigma, sigma);
        assert!(derated.hsnm() < base.hsnm());
        assert!((base.hsnm() - derated.hsnm()).millivolts() - 36.0 < 1e-9);
        assert!(derated.rsnm(Voltage::ZERO) < base.rsnm(Voltage::ZERO));
        assert!(derated.write_margin() < base.write_margin());
        // Performance tables are untouched.
        assert_eq!(
            derated.read_current(Voltage::from_millivolts(-120.0)),
            base.read_current(Voltage::from_millivolts(-120.0))
        );
        assert_eq!(
            derated.write_delay(Voltage::from_millivolts(540.0)),
            base.write_delay(Voltage::from_millivolts(540.0))
        );
        // Derating clamps at zero rather than going negative.
        let floor = base.derated(100.0, sigma, sigma, sigma);
        assert_eq!(floor.hsnm(), Voltage::ZERO);
    }

    #[test]
    fn write_delay_improves_with_overdrive() {
        let c = CellCharacterization::paper_hvt(vdd());
        let slow = c.write_delay(Voltage::from_millivolts(450.0));
        let fast = c.write_delay(Voltage::from_millivolts(600.0));
        assert!(fast < slow);
        assert!((c.write_delay(Voltage::from_millivolts(540.0)).picoseconds() - 1.5).abs() < 0.1);
    }
}
