//! Voltage-rail policies: methods M1 and M2.
//!
//! Section 5 evaluates two assumptions about how many extra supply rails
//! (external pins or on-die DC-DC outputs) the design may use:
//!
//! * **M1** — one extra *positive* rail only. Its level must serve both
//!   the Vdd-boost and the WL-overdrive assists, so it is set to
//!   `max(V_DDC, V_WL)`; no negative rail exists, hence `V_SSC = 0`.
//! * **M2** — no restriction: `V_DDC` and `V_WL` each take their own
//!   minimum yield-meeting level and a negative `V_SSC` rail is
//!   available.

use crate::CooptError;
use core::ops::ControlFlow;
use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_units::Voltage;

/// Rail-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// One extra voltage rail, set to `max(V_DDC, V_WL)`; no negative Gnd.
    M1,
    /// Unrestricted rails: independent `V_DDC`, `V_WL`, and `V_SSC`.
    M2,
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Method::M1 => f.write_str("M1"),
            Method::M2 => f.write_str("M2"),
        }
    }
}

/// The rail levels selected for one `(flavor, method)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailSelection {
    /// Cell supply rail `V_DDC`.
    pub vddc: Voltage,
    /// Asserted wordline level `V_WL`.
    pub vwl: Voltage,
    /// Whether a negative `V_SSC` rail may be used.
    pub negative_gnd_allowed: bool,
}

impl RailSelection {
    /// Applies the policy to per-technique minimum levels
    /// (`vddc_min` from the RSNM requirement, `vwl_min` from WM).
    #[must_use]
    pub fn from_minimums(method: Method, vddc_min: Voltage, vwl_min: Voltage) -> Self {
        match method {
            Method::M1 => {
                let rail = vddc_min.max(vwl_min);
                Self {
                    vddc: rail,
                    vwl: rail,
                    negative_gnd_allowed: false,
                }
            }
            Method::M2 => Self {
                vddc: vddc_min,
                vwl: vwl_min,
                negative_gnd_allowed: true,
            },
        }
    }

    /// The paper's published minimum levels (its SPICE results):
    /// `V_DDC = 640 mV / V_WL = 490 mV` for LVT,
    /// `V_DDC = 550 mV / V_WL = 540 mV` for HVT.
    #[must_use]
    pub fn paper_minimums(flavor: sram_device::VtFlavor) -> (Voltage, Voltage) {
        match flavor {
            sram_device::VtFlavor::Lvt => (
                Voltage::from_millivolts(640.0),
                Voltage::from_millivolts(490.0),
            ),
            sram_device::VtFlavor::Hvt => (
                Voltage::from_millivolts(550.0),
                Voltage::from_millivolts(540.0),
            ),
        }
    }
}

/// Finds the minimum `V_DDC` (10 mV grid) whose read SNM meets `delta`,
/// by simulation — the Section 5 rail-minimization step.
///
/// The candidates are the levels of a scan up from Vdd ([`rail_levels`]),
/// but the search brackets the level the scan would stop at instead of
/// measuring a read butterfly at each ([`first_stop`]). RSNM rises
/// almost linearly with the boost, so a secant lands on or just past it:
/// the nominal cells at 450 mV take 4 butterflies (LVT: 450, 550, 610,
/// 600 mV) and 3 (HVT: 450, 550, 560 mV), where the scan takes 17 and 12.
///
/// The search returns the scan's answer, value or error, when stopping
/// is monotone above Vdd: once a level's RSNM meets `delta` or its
/// measurement fails, every level above it does one or the other. The
/// scan reads no level above its answer, so a level up there that fails
/// to measure cannot change the answer. A unit test keeps the scan as
/// the oracle and requires equal results on nominal and varied LVT/HVT
/// cells at supplies from 250 mV to past 800 mV.
///
/// # Errors
///
/// [`CooptError::RailSearchFailed`] when no level up to 800 mV suffices;
/// otherwise the measurement error of the lowest level that fails to
/// measure below the first passing one, as the scan would return it.
pub(crate) fn minimize_vddc(
    characterizer: &CellCharacterizer,
    delta: Voltage,
) -> Result<Voltage, CooptError> {
    let nominal = AssistVoltages::nominal(characterizer.vdd());
    let levels = rail_levels(characterizer.vdd());
    let first = first_stop(levels.len(), delta, |i| {
        characterizer
            .read_snm(&nominal.with_vddc(levels[i]))
            .map_err(CooptError::Cell)
    })?;
    first
        .map(|i| levels[i])
        .ok_or(CooptError::RailSearchFailed { rail: "V_DDC" })
}

/// The levels a rail scan visits: `vdd`, then 10 mV steps up to 800 mV,
/// accumulated as the scan accumulates them so each is bit-equal to the
/// scan's. Empty when `vdd` is above 800 mV.
fn rail_levels(vdd: Voltage) -> Vec<Voltage> {
    let mut levels = Vec::new();
    let mut mv = vdd.millivolts();
    while mv <= 800.0 {
        levels.push(Voltage::from_millivolts(mv));
        mv += 10.0;
    }
    levels
}

/// The index of the level a scan over `count` levels stops at, found by
/// bracketing. `margin(i)` measures level `i`; the scan stops at the
/// first level whose margin meets `delta` (`Ok(Some(i))`) or whose
/// measurement fails (that error), and runs off the top (`Ok(None)`)
/// when neither happens. Stopping must be monotone — every level above a
/// stopping level stops too — for the bracket to find the first one.
///
/// It probes level 0, then level 10, then steps up by the secant through
/// the last two margins (rounded up), or doubles the step when the slope
/// is not positive; once a secant step has fallen short, each next step
/// at least doubles. The `(short, stop]` bracket then narrows by regula
/// falsi on indices, rounded up and kept strictly inside, and bisects
/// after any step that did not halve it. A poor slope thus costs
/// O(log `count`) probes in each phase.
fn first_stop<E>(
    count: usize,
    delta: Voltage,
    mut margin: impl FnMut(usize) -> Result<Voltage, E>,
) -> Result<Option<usize>, E> {
    let mut probe = |i: usize| match margin(i) {
        Ok(m) if m >= delta => ControlFlow::Break(Ok(m)),
        Ok(m) => ControlFlow::Continue(m),
        Err(e) => ControlFlow::Break(Err(e)),
    };
    let Some(top) = count.checked_sub(1) else {
        return Ok(None);
    };
    // `lo` falls short with margin `lo_m`; `hi` stops with `stop`.
    let (mut lo, mut lo_m) = match probe(0) {
        ControlFlow::Continue(m) => (0, m),
        ControlFlow::Break(stop) => return stop.map(|_| Some(0)),
    };
    if top == 0 {
        return Ok(None);
    }
    let mut hi = top.min(10);
    let mut stop = loop {
        let m = match probe(hi) {
            ControlFlow::Continue(m) => m,
            ControlFlow::Break(stop) => break stop,
        };
        if hi == top {
            return Ok(None);
        }
        let step = hi - lo;
        let slope = (m - lo_m) / step as f64;
        let secant = if slope > Voltage::ZERO {
            ((delta - m) / slope).ceil()
        } else {
            2.0 * step as f64
        };
        // The step from level 0 was fixed; every later one was a secant
        // step, and this probe shows it fell short.
        let least = if lo == 0 { 1 } else { 2 * step };
        (lo, lo_m) = (hi, m);
        hi = (secant as usize).max(least).saturating_add(hi).min(top);
    };
    let mut bisect = false;
    while hi - lo > 1 {
        let width = hi - lo;
        let guess = match &stop {
            Ok(hi_m) if !bisect => {
                let t = (delta - lo_m) / (*hi_m - lo_m);
                ((lo as f64 + t * width as f64).ceil() as usize).clamp(lo + 1, hi - 1)
            }
            _ => lo + width / 2,
        };
        match probe(guess) {
            ControlFlow::Continue(m) => (lo, lo_m) = (guess, m),
            ControlFlow::Break(s) => (hi, stop) = (guess, s),
        }
        bisect = 2 * (hi - lo) > width;
    }
    stop.map(|_| Some(hi))
}

/// Finds the minimum `V_WL` (10 mV grid) whose write margin meets
/// `delta`, by simulation.
///
/// The write netlist drives the wordline at the probe level and never
/// reads `bias.vwl`, so one continuation flip search
/// ([`CellCharacterizer::wordline_flip_voltage`]) serves the whole
/// scan; each step's margin is `V_WL − flip`, the subtraction
/// [`CellCharacterizer::write_margin`] does.
///
/// # Errors
///
/// [`CooptError::RailSearchFailed`] when no level up to 800 mV suffices.
pub(crate) fn minimize_vwl(
    characterizer: &CellCharacterizer,
    delta: Voltage,
) -> Result<Voltage, CooptError> {
    let failed = CooptError::RailSearchFailed { rail: "V_WL" };
    let levels = rail_levels(characterizer.vdd());
    if levels.is_empty() {
        return Err(failed);
    }
    let flip = characterizer
        .wordline_flip_voltage(&AssistVoltages::nominal(characterizer.vdd()))
        .map_err(CooptError::Cell)?;
    levels
        .into_iter()
        .find(|&vwl| vwl - flip >= delta)
        .ok_or(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::VtFlavor;

    #[test]
    fn m1_takes_the_max_rail() {
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Lvt);
        let sel = RailSelection::from_minimums(Method::M1, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 640.0);
        assert_eq!(sel.vwl.millivolts(), 640.0);
        assert!(!sel.negative_gnd_allowed);
    }

    #[test]
    fn m2_keeps_independent_rails() {
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Lvt);
        let sel = RailSelection::from_minimums(Method::M2, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 640.0);
        assert_eq!(sel.vwl.millivolts(), 490.0);
        assert!(sel.negative_gnd_allowed);
    }

    #[test]
    fn hvt_m1_rail_is_550() {
        // max(550, 540) = 550: the paper's Table 4 HVT-M1 voltages.
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Hvt);
        let sel = RailSelection::from_minimums(Method::M1, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 550.0);
        assert_eq!(sel.vwl.millivolts(), 550.0);
    }

    /// The per-step scan `minimize_vwl` replaced: a fresh flip search
    /// inside every `write_margin` call.
    fn minimize_vwl_by_scan(
        characterizer: &CellCharacterizer,
        delta: Voltage,
    ) -> Result<Voltage, CooptError> {
        let vdd = characterizer.vdd();
        let nominal = AssistVoltages::nominal(vdd);
        let mut mv = vdd.millivolts();
        while mv <= 800.0 {
            let vwl = Voltage::from_millivolts(mv);
            let wm = characterizer
                .write_margin(&nominal.with_vwl(vwl))
                .map_err(CooptError::Cell)?;
            if wm >= delta {
                return Ok(vwl);
            }
            mv += 10.0;
        }
        Err(CooptError::RailSearchFailed { rail: "V_WL" })
    }

    #[test]
    fn one_flip_search_matches_the_per_step_scan() {
        use sram_device::DeviceLibrary;
        let lib = DeviceLibrary::sevennm();
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            for vdd_mv in [400.0, 450.0, 500.0] {
                let vdd = Voltage::from_millivolts(vdd_mv);
                let chr = CellCharacterizer::new(&lib, flavor).with_vdd(vdd);
                let delta = vdd * 0.35;
                let fast = minimize_vwl(&chr, delta).unwrap();
                let oracle = minimize_vwl_by_scan(&chr, delta).unwrap();
                assert_eq!(fast, oracle, "{flavor} at Vdd = {vdd}");
            }
        }
    }

    /// The scan `minimize_vddc` replaced: one read butterfly per level,
    /// up from Vdd, until one meets `delta`.
    fn minimize_vddc_by_scan(
        characterizer: &CellCharacterizer,
        delta: Voltage,
    ) -> Result<Voltage, CooptError> {
        let vdd = characterizer.vdd();
        let nominal = AssistVoltages::nominal(vdd);
        let mut mv = vdd.millivolts();
        while mv <= 800.0 {
            let vddc = Voltage::from_millivolts(mv);
            let rsnm = characterizer
                .read_snm(&nominal.with_vddc(vddc))
                .map_err(CooptError::Cell)?;
            if rsnm >= delta {
                return Ok(vddc);
            }
            mv += 10.0;
        }
        Err(CooptError::RailSearchFailed { rail: "V_DDC" })
    }

    /// `minimize_vddc` against the scan, value or error, `Voltage` bits
    /// equal: nominal and varied LVT/HVT cells, 25- and 31-point VTCs,
    /// `δ = 0.35·Vdd` at supplies from 250 mV to 800 mV and one above it.
    /// Three kinds of case run out of levels: a supply above 800 mV (no
    /// levels at all), a nominal cell whose rail would need more than
    /// 800 mV (LVT from 600 mV, HVT from 700 mV), and a `δ` no level
    /// meets.
    #[test]
    fn bracketed_vddc_search_matches_the_scan() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sram_cell::Sram6t;
        use sram_device::DeviceLibrary;
        use sram_faults::{ordered_map, CancelToken};

        let lib = DeviceLibrary::sevennm();
        let mv = Voltage::from_millivolts;
        let mut cases = Vec::new();
        for (flavor, nominal_fails_from) in [(VtFlavor::Lvt, 600.0), (VtFlavor::Hvt, 700.0)] {
            let nominal = Sram6t::new(&lib, flavor);
            let mut rng = StdRng::seed_from_u64(0x7dd0);
            let cells: Vec<_> = std::iter::once(nominal.clone())
                .chain((0..3).map(|_| nominal.with_variation(&mut rng)))
                .collect();
            let supplies = [
                250.0, 300.0, 350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 700.0, 800.0, 805.0,
            ];
            for (step, vdd_mv) in supplies.into_iter().enumerate() {
                let vdd = mv(vdd_mv);
                for (index, cell) in cells.iter().enumerate() {
                    let points = if (step + index) % 2 == 0 { 31 } else { 25 };
                    let chr = CellCharacterizer::new(&lib, flavor)
                        .with_cell(cell.clone())
                        .with_vdd(vdd)
                        .with_vtc_points(points);
                    let label = format!("{flavor} cell #{index} ({points} points) at Vdd {vdd}");
                    let runs_out = vdd_mv > 800.0 || (index == 0 && vdd_mv >= nominal_fails_from);
                    cases.push((label, chr, vdd * 0.35, runs_out));
                }
            }
            let chr = CellCharacterizer::new(&lib, flavor).with_vtc_points(25);
            cases.push((format!("{flavor} nominal, δ 1 V"), chr, mv(1000.0), true));
        }
        let results = ordered_map(&cases, &CancelToken::never(), |(_, chr, delta, _)| {
            Ok::<_, CooptError>((
                minimize_vddc(chr, *delta),
                minimize_vddc_by_scan(chr, *delta),
            ))
        })
        .expect("never cancelled");
        let bits = |r: &Result<Voltage, CooptError>| r.clone().map(|v| v.volts().to_bits());
        for ((label, _, _, runs_out), (search, scan)) in cases.iter().zip(&results) {
            assert_eq!(bits(search), bits(scan), "{label}");
            if *runs_out {
                let failed = CooptError::RailSearchFailed { rail: "V_DDC" };
                assert_eq!(scan.as_ref(), Err(&failed), "{label}");
            }
        }
    }

    /// `first_stop` against a scan over synthetic levels: below the first
    /// stop, margins short of `δ` along linear, concave, convex, noisy,
    /// flat and falling curves and one creeping up on `δ`; from it on,
    /// margins meeting `δ` (some exactly) mixed with failed
    /// measurements. The same answer or the same error, each level
    /// probed at most once, and at most `4 + 3·⌈log2(count + 1)⌉`
    /// probes.
    #[test]
    fn first_stop_matches_a_scan_of_synthetic_levels() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let delta = Voltage::from_millivolts(100.0);
        let mut rng = StdRng::seed_from_u64(0xb5ac);
        let mut below = |n: u64| (rng.random::<u64>() % n) as usize;
        for case in 0..20_000 {
            let count = below(81);
            let first = below(count as u64 + 1);
            let shape = below(7);
            let jitter = below(1000) as f64 / 1000.0;
            let levels: Vec<Result<Voltage, usize>> = (0..count)
                .map(|i| {
                    if i >= first {
                        return match (i * 7 + shape) % 4 {
                            0 => Err(i),
                            1 => Ok(delta),
                            _ => Ok(delta * (1.0 + jitter + i as f64)),
                        };
                    }
                    let x = (i as f64 + 1.0) / (first as f64 + 1.0);
                    let y = match shape {
                        0 => x,
                        1 => x.sqrt(),
                        2 => x.powi(3),
                        3 => ((i * 37 + first) % 11) as f64 / 11.0,
                        4 => jitter,
                        5 => 1.0 - x,
                        // Creeps up on δ, so every secant step falls short.
                        _ => return Ok(delta * (1.0 - 0.7_f64.powi(i as i32 + 1))),
                    };
                    Ok(delta * (0.999 * y))
                })
                .collect();
            let scan = match levels.iter().position(|l| l.map_or(true, |m| m >= delta)) {
                Some(i) => levels[i].map(|_| Some(i)),
                None => Ok(None),
            };
            let mut probed = Vec::new();
            let search = first_stop(count, delta, |i| {
                probed.push(i);
                levels[i]
            });
            assert_eq!(search, scan, "case {case}: {levels:?}");
            let mut unique = probed.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), probed.len(), "case {case} probed {probed:?}");
            let bound = 4 + 3 * (usize::BITS - count.leading_zeros()) as usize;
            assert!(probed.len() <= bound, "case {case} probed {probed:?}");
        }
    }

    #[test]
    fn nominal_vddc_searches_probe_few_levels() {
        use sram_device::DeviceLibrary;
        let lib = DeviceLibrary::sevennm();
        // The scan measures 17 (LVT: 450 → 610 mV) and 12 (HVT) levels.
        for (flavor, rail, expected) in [
            (VtFlavor::Lvt, 610.0, &[450.0, 550.0, 610.0, 600.0][..]),
            (VtFlavor::Hvt, 560.0, &[450.0, 550.0, 560.0][..]),
        ] {
            let chr = CellCharacterizer::new(&lib, flavor).with_vtc_points(31);
            let nominal = AssistVoltages::nominal(chr.vdd());
            let levels = rail_levels(chr.vdd());
            let mut probed = Vec::new();
            let first = first_stop(levels.len(), chr.vdd() * 0.35, |i| {
                probed.push(levels[i].millivolts());
                chr.read_snm(&nominal.with_vddc(levels[i]))
            })
            .unwrap();
            assert_eq!(probed, expected, "{flavor}");
            assert_eq!(first.map(|i| levels[i].millivolts()), Some(rail));
        }
    }

    #[test]
    fn vwl_search_starting_above_800_mv_fails() {
        use sram_device::DeviceLibrary;
        let chr = CellCharacterizer::new(&DeviceLibrary::sevennm(), VtFlavor::Hvt)
            .with_vdd(Voltage::from_millivolts(810.0));
        let err = minimize_vwl(&chr, Voltage::from_millivolts(100.0)).unwrap_err();
        assert!(matches!(err, CooptError::RailSearchFailed { rail: "V_WL" }));
    }

    #[test]
    fn simulated_rail_minimization_lands_near_paper() {
        use sram_cell::CellCharacterizer;
        use sram_device::DeviceLibrary;
        let lib = DeviceLibrary::sevennm();
        let delta = Voltage::from_millivolts(157.5);
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(31);
        let vddc = minimize_vddc(&chr, delta).unwrap();
        let vwl = minimize_vwl(&chr, delta).unwrap();
        // Paper: 550 mV / 540 mV. Our device card lands within ~30 mV.
        assert!(
            (vddc.millivolts() - 550.0).abs() <= 40.0,
            "V_DDC min = {vddc}"
        );
        assert!((vwl.millivolts() - 540.0).abs() <= 40.0, "V_WL min = {vwl}");
    }
}
