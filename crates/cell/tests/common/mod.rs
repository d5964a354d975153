//! Shared by the margin and Monte Carlo tests: the paths that faster
//! ones replaced, each kept as an oracle — the cold write probe and its
//! bisection (the continuation flip search's), the unpruned
//! maximum-square walk (`square`, the pruned walk's), both halves'
//! VTC sweeps (the one-sweep symmetric butterfly's) and the full-window
//! write-delay run (the early-ending one's); the varied cells
//! `YieldAnalyzer` draws; and a serial Monte Carlo loop written out from
//! the public API.
//!
//! Each test binary uses part of this module.
#![allow(dead_code)]

pub mod square;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_cell::{
    AssistVoltages, CellCharacterizer, CellError, MarginKind, MarginStats, MonteCarloConfig,
    Sram6t, Vtc, VtcHalf, VtcMode, YieldAnalysis,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_spice::{CrossingEdge, DcSolver, DcSweep, SpiceError, Transient};
use sram_units::{Time, Voltage};

/// The `(V_DDC, V_WL, V_SSC)` rails (mV) of the flavor's M1 and M2
/// sim-stack designs.
pub fn sim_stack_rails(flavor: VtFlavor) -> [(f64, f64, f64); 2] {
    match flavor {
        VtFlavor::Lvt => [(610.0, 610.0, 0.0), (610.0, 490.0, -240.0)],
        VtFlavor::Hvt => [(560.0, 560.0, 0.0), (560.0, 530.0, -240.0)],
    }
}

/// The nominal bias with the given rails (mV) applied.
pub fn rails_bias(vdd: Voltage, (vddc, vwl, vssc): (f64, f64, f64)) -> AssistVoltages {
    let mv = Voltage::from_millivolts;
    AssistVoltages::nominal(vdd)
        .with_vddc(mv(vddc))
        .with_vwl(mv(vwl))
        .with_vssc(mv(vssc))
}

/// Monte Carlo samples `(flavor, seed, index)` whose pinned DC write
/// probe once failed to converge under one FinFET Jacobian or another.
pub const CENSUS: [(VtFlavor, u64, usize); 9] = [
    (VtFlavor::Lvt, 21, 8),
    (VtFlavor::Lvt, 30, 1),
    (VtFlavor::Lvt, 43, 3),
    (VtFlavor::Lvt, 49, 15),
    (VtFlavor::Hvt, 9, 9),
    (VtFlavor::Hvt, 29, 4),
    (VtFlavor::Hvt, 57, 10),
    (VtFlavor::Hvt, 62, 13),
    (VtFlavor::Hvt, 93, 9),
];

/// The characterizer `YieldAnalyzer` builds for draw `index` (0-based)
/// of `seed`.
pub fn sample(flavor: VtFlavor, seed: u64, index: usize) -> CellCharacterizer {
    let lib = DeviceLibrary::sevennm();
    let nominal = Sram6t::new(&lib, flavor);
    let mut rng = StdRng::seed_from_u64(seed);
    let cell = (0..=index)
        .map(|_| nominal.with_variation(&mut rng))
        .last()
        .expect("at least one draw");
    CellCharacterizer::new(&lib, flavor).with_cell(cell)
}

/// One cold write probe: whether a DC write with the wordline at
/// `vwl_test` flips `chr`'s cell storing `Q = 1` (BL driven to
/// `bias.vbl`, BLB at `Vdd`), and whether the probe fell back to
/// letting the cell settle.
///
/// The probe is one DC solve pinned toward `Q = 1`. Just past the fold
/// Newton can fail to converge there; then the cell settling for 2 ns
/// decides ([`settles_flipped`]). Every probe that converges keeps its
/// DC decision.
pub fn write_flips(
    chr: &CellCharacterizer,
    bias: &AssistVoltages,
    vwl_test: Voltage,
) -> Result<(bool, bool), CellError> {
    let (ckt, nodes) = chr.cell().write_dc_circuit(bias, chr.vdd(), vwl_test);
    let solved = DcSolver::new()
        .nodeset(nodes.q, bias.vddc)
        .nodeset(nodes.qb, bias.vssc)
        .solve(&ckt);
    match solved {
        Ok(sol) => Ok((sol.voltage(nodes.q) < sol.voltage(nodes.qb), false)),
        Err(SpiceError::NonConvergent { .. }) => {
            let settle = Time::from_nanoseconds(2.0);
            Ok((settles_flipped(chr, bias, vwl_test, settle)?, true))
        }
        Err(e) => Err(e.into()),
    }
}

/// Whether the cell, storing `Q = 1` with the wordline off, has flipped
/// `settle` after the wordline steps to `vwl_test` (BL at `bias.vbl`,
/// BLB at `Vdd`): the dynamic form of [`write_flips`]. Only the final
/// state is kept, so memory does not grow with the step count.
///
/// The flip slows down toward the fold, so the probe's 2 ns is an
/// assumed settling time: 0.05 mV past the fold a varied cell takes
/// about 1 ns. `write_fallback.rs` holds every fallback in a 0.1 mV
/// scan around the flip of each known non-converging cell to a 20 ns
/// run.
pub fn settles_flipped(
    chr: &CellCharacterizer,
    bias: &AssistVoltages,
    vwl_test: Voltage,
    settle: Time,
) -> Result<bool, CellError> {
    let (ckt, nodes) = chr.cell().write_transient_circuit(
        &bias.with_vwl(vwl_test),
        chr.vdd(),
        Time::from_picoseconds(2.0),
        Time::from_picoseconds(0.5),
    );
    let end = Transient::new(settle, Time::from_picoseconds(2.0))
        .with_initial_solver(
            DcSolver::new()
                .nodeset(nodes.q, bias.vddc)
                .nodeset(nodes.qb, bias.vssc),
        )
        .final_state(&ckt)?;
    Ok(end.voltage(nodes.q) < end.voltage(nodes.qb))
}

/// Minimum wordline voltage that flips the cell, by cold bisection over
/// [`write_flips`] to 1 mV: `CellCharacterizer::wordline_flip_voltage`
/// must return its value to the bit, or its error.
pub fn bisected_flip_voltage(
    chr: &CellCharacterizer,
    bias: &AssistVoltages,
) -> Result<Voltage, CellError> {
    bias.validate().map_err(CellError::InvalidBias)?;
    let mut lo = Voltage::ZERO; // never flips with WL off
    let mut hi = chr.vdd() * 2.0 + bias.vbl.abs();
    if !write_flips(chr, bias, hi)?.0 {
        return Err(CellError::BracketingFailed {
            what: "wordline flip voltage",
        });
    }
    while (hi - lo).millivolts() > 1.0 {
        let mid = lo.lerp(hi, 0.5);
        if write_flips(chr, bias, mid)?.0 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(lo.lerp(hi, 0.5))
}

/// The cell write delay as `CellCharacterizer::write_delay` measured it
/// over the whole 60 ps window: the same transient run to its end, then
/// the same WL 50 % crossing and `Q`/`QB` meeting.
/// `CellCharacterizer::write_delay`, which ends the run at the meeting,
/// must return its value to the bit, or its error.
pub fn full_window_write_delay(
    chr: &CellCharacterizer,
    bias: &AssistVoltages,
) -> Result<Time, CellError> {
    bias.validate().map_err(CellError::InvalidBias)?;
    let t_start = Time::from_picoseconds(2.0);
    let t_rise = Time::from_picoseconds(0.5);
    let (ckt, nodes) = chr
        .cell()
        .write_transient_circuit(bias, chr.vdd(), t_start, t_rise);
    let result = Transient::new(Time::from_picoseconds(60.0), Time::from_picoseconds(0.25))
        .with_initial_solver(
            DcSolver::new()
                .nodeset(nodes.q, bias.vddc)
                .nodeset(nodes.qb, bias.vssc),
        )
        .run(&ckt)?;
    let trace = result.trace();
    let wl_half = trace
        .crossing(nodes.wl, chr.vdd() * 0.5, CrossingEdge::Rising, Time::ZERO)
        .ok_or_else(|| CellError::MeasurementFailed {
            what: "write delay",
            reason: "wordline never reached 50% of Vdd".into(),
        })?;
    let meet = trace
        .meeting_time(nodes.q, nodes.qb, wl_half)
        .ok_or_else(|| CellError::MeasurementFailed {
            what: "write delay",
            reason: "Q never met QB (write failed)".into(),
        })?;
    Ok(meet - wl_half)
}

/// The SNM of the butterfly of `forward` and `mirrored` by the unpruned
/// walk: `butterfly_snm` must return the same result, its volts equal to
/// the bit.
pub fn oracle_snm(forward: &Vtc, mirrored: &Vtc) -> Result<Voltage, CellError> {
    let volts = |vtc: &Vtc| -> Vec<(f64, f64)> {
        vtc.points().map(|(x, y)| (x.volts(), y.volts())).collect()
    };
    let (upper, lower) = square::lobes(&volts(forward), &volts(mirrored));
    if upper <= 0.0 || lower <= 0.0 {
        return Err(CellError::MeasurementFailed {
            what: "SNM",
            reason: "a butterfly lobe has collapsed (cell not bistable)".into(),
        });
    }
    Ok(Voltage::from_volts(upper.min(lower)))
}

/// Equal errors, or margins whose volts are equal to the bit.
pub fn same_margin(a: &Result<Voltage, CellError>, b: &Result<Voltage, CellError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.volts().to_bits() == y.volts().to_bits(),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// The `(left, right)` VTCs of `chr`'s cell as `CellCharacterizer`
/// sweeps them for its hold (`VtcMode::Hold`) or read butterfly:
/// `points` samples of each half's output, the input swept from `V_SSC`
/// to `V_DDC`.
pub fn butterfly_vtcs(
    chr: &CellCharacterizer,
    mode: VtcMode,
    bias: &AssistVoltages,
    points: usize,
) -> Result<(Vtc, Vtc), CellError> {
    let vtc = |half| {
        let (ckt, _, out) = chr.cell().vtc_circuit(half, mode, bias, chr.vdd());
        let sweep = DcSweep::new("VU", bias.vssc, bias.vddc, points).run(&ckt)?;
        Vtc::new(
            sweep
                .into_iter()
                .map(|p| (p.value, p.solution.voltage(out)))
                .collect(),
        )
    };
    Ok((vtc(VtcHalf::Left)?, vtc(VtcHalf::Right)?))
}

/// Mean, sample standard deviation and minimum, summed in sample order.
fn stats(kind: MarginKind, values: &[f64]) -> MarginStats {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    MarginStats {
        kind,
        mean: Voltage::from_volts(mean),
        sigma: Voltage::from_volts(var.sqrt()),
        worst: Voltage::from_volts(values.iter().copied().fold(f64::INFINITY, f64::min)),
        samples: values.len(),
    }
}

/// A collapsed butterfly is a zero-margin sample.
pub fn margin_or_zero(result: Result<Voltage, CellError>) -> f64 {
    match result {
        Ok(v) => v.volts(),
        Err(CellError::MeasurementFailed { .. }) => 0.0,
        Err(e) => panic!("margin: {e}"),
    }
}

/// One sample after another: draw the varied cell, measure HSNM at the
/// nominal rails, RSNM at the read assists, and WM at the write assists
/// as `V_WL − flip(sample, write bias)`, a bracketing failure as zero.
pub fn serial_monte_carlo(
    chr: &CellCharacterizer,
    config: MonteCarloConfig,
    bias: &AssistVoltages,
    flip: impl Fn(&CellCharacterizer, &AssistVoltages) -> Result<Voltage, CellError>,
) -> YieldAnalysis {
    let nominal = AssistVoltages::nominal(chr.vdd());
    let read_bias = nominal.with_vddc(bias.vddc).with_vssc(bias.vssc);
    let write_bias = nominal.with_vwl(bias.vwl).with_vbl(bias.vbl);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (mut hsnm, mut rsnm, mut wm) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..config.samples {
        let cell = chr.cell().with_variation(&mut rng);
        let sample = chr
            .clone()
            .with_cell(cell)
            .with_vtc_points(config.vtc_points);
        hsnm.push(margin_or_zero(sample.hold_snm(&nominal)));
        rsnm.push(margin_or_zero(sample.read_snm(&read_bias)));
        wm.push(match flip(&sample, &write_bias) {
            Ok(v) => (write_bias.vwl - v).volts(),
            Err(CellError::BracketingFailed { .. }) => 0.0,
            Err(e) => panic!("write margin: {e}"),
        });
    }
    YieldAnalysis {
        hsnm: stats(MarginKind::Hsnm, &hsnm),
        rsnm: stats(MarginKind::Rsnm, &rsnm),
        wm: stats(MarginKind::WriteMargin, &wm),
    }
}
