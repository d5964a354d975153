//! Monte Carlo yield analysis over device variation.
//!
//! The paper derives its `δ = 0.35·Vdd` minimum-margin rule from Monte
//! Carlo analysis, and sketches the "accurate" constraint
//! `min((μ − kσ)_HSNM, (μ − kσ)_RSNM, (μ − kσ)_WM) ≥ 0` with `1 ≤ k ≤ 6`.
//! This module implements that analysis: sample cells with random Vt
//! shifts, characterize each, and report per-margin statistics.

use crate::{AssistVoltages, CellCharacterizer, CellError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sram_faults::{ordered_map, CancelToken};
use sram_units::Voltage;

/// Which margin a statistic describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarginKind {
    /// Hold static noise margin.
    Hsnm,
    /// Read static noise margin.
    Rsnm,
    /// Write margin.
    WriteMargin,
}

impl core::fmt::Display for MarginKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MarginKind::Hsnm => f.write_str("HSNM"),
            MarginKind::Rsnm => f.write_str("RSNM"),
            MarginKind::WriteMargin => f.write_str("WM"),
        }
    }
}

/// Sample statistics of one margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarginStats {
    /// Which margin.
    pub kind: MarginKind,
    /// Sample mean.
    pub mean: Voltage,
    /// Sample standard deviation.
    pub sigma: Voltage,
    /// Worst sample observed.
    pub worst: Voltage,
    /// Number of samples (collapsed butterflies count as zero margin).
    pub samples: usize,
}

impl MarginStats {
    /// The statistical margin `μ − kσ` of the paper's accurate constraint.
    fn mu_minus_k_sigma(&self, k: f64) -> Voltage {
        self.mean - self.sigma * k
    }

    fn from_samples(kind: MarginKind, values: &[f64]) -> Self {
        let n = values.len().max(1) as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = if values.len() > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            kind,
            mean: Voltage::from_volts(mean),
            sigma: Voltage::from_volts(var.sqrt()),
            worst: Voltage::from_volts(values.iter().copied().fold(f64::INFINITY, f64::min)),
            samples: values.len(),
        }
    }
}

/// Monte Carlo configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloConfig {
    /// Number of sampled cells.
    pub samples: usize,
    /// RNG seed (runs are reproducible by construction).
    pub seed: u64,
    /// VTC sweep resolution per sample (lower = faster).
    pub vtc_points: usize,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        Self {
            samples: 200,
            seed: 0x5eed,
            vtc_points: 31,
        }
    }
}

/// Result of a yield analysis: statistics for all three margins.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldAnalysis {
    /// HSNM statistics.
    pub hsnm: MarginStats,
    /// RSNM statistics.
    pub rsnm: MarginStats,
    /// Write-margin statistics.
    pub wm: MarginStats,
}

impl YieldAnalysis {
    /// The paper's accurate yield constraint:
    /// `min over margins of (μ − kσ) ≥ 0`.
    #[must_use]
    pub fn passes(&self, k: f64) -> bool {
        self.worst_statistical_margin(k).volts() >= 0.0
    }

    /// `min((μ−kσ)_HSNM, (μ−kσ)_RSNM, (μ−kσ)_WM)`.
    #[must_use]
    pub fn worst_statistical_margin(&self, k: f64) -> Voltage {
        self.hsnm
            .mu_minus_k_sigma(k)
            .min(self.rsnm.mu_minus_k_sigma(k))
            .min(self.wm.mu_minus_k_sigma(k))
    }
}

/// Runs Monte Carlo yield analyses on a cell under a bias.
#[derive(Debug, Clone)]
pub struct YieldAnalyzer {
    characterizer: CellCharacterizer,
    config: MonteCarloConfig,
}

impl YieldAnalyzer {
    /// Creates an analyzer around a (nominal-cell) characterizer.
    #[must_use]
    pub fn new(characterizer: CellCharacterizer, config: MonteCarloConfig) -> Self {
        Self {
            characterizer,
            config,
        }
    }

    /// Samples `config.samples` cells and characterizes all three margins
    /// of each, applying the assists of `bias` **per operation** exactly
    /// as the array does (paper Fig. 4): hold margins see nominal rails,
    /// the read margin sees the Vdd-boost/negative-Gnd rails, and the
    /// write margin sees the overdriven wordline (and negative bitline)
    /// with nominal rails — applying the read assists during a write
    /// would *strengthen* the cell against flipping and misreport WM.
    ///
    /// Collapsed butterflies (cells that lost bistability under variation)
    /// are recorded as zero margin; write-margin bracketing failures as
    /// zero WM. The flip search walks the stored state's branch by
    /// continuation ([`CellCharacterizer::wordline_flip_voltage`]); a
    /// step that does not converge there marks the fold rather than
    /// failing the run.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors other than margin collapse.
    pub fn run(&self, bias: &AssistVoltages) -> Result<YieldAnalysis, CellError> {
        self.run_with_cancel(bias, &CancelToken::never())
    }

    /// [`YieldAnalyzer::run`] with a cooperative [`CancelToken`], polled
    /// before each sample so a deadline or shutdown aborts the analysis
    /// within one sample's work.
    ///
    /// The varied cells are drawn from the seeded RNG up front, in
    /// sample order, and measured on [`ordered_map`]'s workers; the
    /// statistics sum the margins in sample order, so the result is
    /// that of one serial loop to the bit.
    ///
    /// # Errors
    ///
    /// [`CellError::Cancelled`] when the token fires mid-run, otherwise
    /// the same errors as [`YieldAnalyzer::run`].
    pub fn run_with_cancel(
        &self,
        bias: &AssistVoltages,
        cancel: &CancelToken,
    ) -> Result<YieldAnalysis, CellError> {
        sram_probe::probe_inc!("cell.mc_runs");
        let _span = sram_probe::probe_span!("cell.mc_run_ns");
        let _trace = sram_probe::trace_span!("cell.mc_run");
        let nominal = AssistVoltages::nominal(self.characterizer.vdd());
        let hold_bias = nominal;
        let read_bias = nominal.with_vddc(bias.vddc).with_vssc(bias.vssc);
        let write_bias = nominal.with_vwl(bias.vwl).with_vbl(bias.vbl);

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let samples: Vec<CellCharacterizer> = (0..self.config.samples)
            .map(|_| {
                let cell = self.characterizer.cell().with_variation(&mut rng);
                self.characterizer
                    .clone()
                    .with_cell(cell)
                    .with_vtc_points(self.config.vtc_points)
            })
            .collect();
        let margins = ordered_map(&samples, cancel, |chr| {
            sram_probe::probe_inc!("cell.mc_samples");
            let hsnm = margin_or_zero(chr.hold_snm(&hold_bias))?;
            let rsnm = margin_or_zero(chr.read_snm(&read_bias))?;
            let wm = match chr.write_margin(&write_bias) {
                Ok(v) => v.volts(),
                Err(CellError::BracketingFailed { .. }) => {
                    sram_probe::probe_inc!("cell.mc_wm_bracketing_failed");
                    0.0
                }
                Err(e) => return Err(e),
            };
            Ok([hsnm, rsnm, wm])
        })
        .inspect_err(|e| {
            if matches!(e, CellError::Cancelled(_)) {
                sram_probe::probe_inc!("cell.mc_cancelled");
            }
        })?;
        let stats = |kind, at: usize| {
            let values: Vec<f64> = margins.iter().map(|m| m[at]).collect();
            MarginStats::from_samples(kind, &values)
        };
        Ok(YieldAnalysis {
            hsnm: stats(MarginKind::Hsnm, 0),
            rsnm: stats(MarginKind::Rsnm, 1),
            wm: stats(MarginKind::WriteMargin, 2),
        })
    }
}

fn margin_or_zero(result: Result<Voltage, CellError>) -> Result<f64, CellError> {
    match result {
        Ok(v) => Ok(v.volts()),
        Err(CellError::MeasurementFailed { .. }) => {
            // The butterfly collapsed under variation: a zero-margin
            // (failing) sample, not a simulator error.
            sram_probe::probe_inc!("cell.mc_collapsed");
            Ok(0.0)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::{DeviceLibrary, VtFlavor};

    #[test]
    fn stats_from_samples() {
        let s = MarginStats::from_samples(MarginKind::Hsnm, &[0.1, 0.2, 0.3]);
        assert!((s.mean.volts() - 0.2).abs() < 1e-12);
        assert!((s.sigma.volts() - 0.1).abs() < 1e-12);
        assert_eq!(s.worst.volts(), 0.1);
        assert_eq!(s.samples, 3);
        assert!((s.mu_minus_k_sigma(1.0).volts() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn yield_analysis_takes_worst_margin() {
        let mk = |kind, mean: f64, sigma: f64| MarginStats {
            kind,
            mean: Voltage::from_volts(mean),
            sigma: Voltage::from_volts(sigma),
            worst: Voltage::from_volts(mean - 2.0 * sigma),
            samples: 10,
        };
        let y = YieldAnalysis {
            hsnm: mk(MarginKind::Hsnm, 0.2, 0.01),
            rsnm: mk(MarginKind::Rsnm, 0.1, 0.03),
            wm: mk(MarginKind::WriteMargin, 0.15, 0.01),
        };
        assert!(y.passes(3.0));
        assert!(!y.passes(4.0)); // RSNM: 0.1 - 4*0.03 < 0
        assert!((y.worst_statistical_margin(1.0).volts() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn small_monte_carlo_runs_end_to_end() {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
        let analyzer = YieldAnalyzer::new(
            chr,
            MonteCarloConfig {
                samples: 8,
                seed: 11,
                vtc_points: 21,
            },
        );
        let bias = AssistVoltages::nominal(Voltage::from_millivolts(450.0))
            .with_vddc(Voltage::from_millivolts(550.0))
            .with_vwl(Voltage::from_millivolts(540.0));
        let y = analyzer.run(&bias).unwrap();
        assert_eq!(y.hsnm.samples, 8);
        assert!(y.hsnm.sigma.volts() > 0.0, "variation must spread margins");
        assert!(y.hsnm.mean > y.rsnm.mean, "read disturb persists under MC");
    }

    #[test]
    fn expired_token_cancels_before_the_first_sample() {
        use std::time::{Duration, Instant};
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
        let analyzer = YieldAnalyzer::new(chr, MonteCarloConfig::default());
        let bias = AssistVoltages::nominal(Voltage::from_millivolts(450.0));
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let started = Instant::now();
        let err = analyzer.run_with_cancel(&bias, &token).unwrap_err();
        assert!(matches!(err, CellError::Cancelled(_)), "{err}");
        assert!(err.to_string().contains("deadline"));
        assert!(!err.is_transient(), "cancellation must not be retried");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "200-sample default run was not short-circuited"
        );
    }

    #[test]
    fn monte_carlo_is_reproducible() {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
        let cfg = MonteCarloConfig {
            samples: 4,
            seed: 99,
            vtc_points: 15,
        };
        let bias = AssistVoltages::nominal(Voltage::from_millivolts(450.0));
        let a = YieldAnalyzer::new(chr.clone(), cfg).run(&bias).unwrap();
        let b = YieldAnalyzer::new(chr, cfg).run(&bias).unwrap();
        assert_eq!(a, b);
    }
}
