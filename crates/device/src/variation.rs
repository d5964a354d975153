//! Random process variation of the threshold voltage.
//!
//! The paper's yield requirement (`δ = 0.35 · Vdd`) comes from a Monte
//! Carlo analysis over device variation; Section 4 also sketches the
//! "accurate" statistical constraint `μ − kσ ≥ 0` on each margin. This
//! module provides the Vt sampling that both analyses need.
//!
//! The model is Pelgrom-like: the per-device random Vt shift is normal with
//! `σ(Vt) = σ_single / sqrt(fins)` — mismatch averages out over parallel
//! fins, which is exactly why FinFETs are more variation-immune than
//! planar devices at the same footprint.

use crate::{DeviceParams, FinFet};
use rand::Rng;
use sram_units::Voltage;

/// Describes the Vt-variation statistics of a device card.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Standard deviation of the random Vt shift for a single-fin device.
    pub sigma_single_fin: Voltage,
}

impl VariationModel {
    /// Builds the variation model recorded in a device card.
    fn from_params(params: &DeviceParams) -> Self {
        Self {
            sigma_single_fin: params.sigma_vt_single_fin,
        }
    }

    /// Standard deviation for a device with `fins` parallel fins.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    pub fn sigma(&self, fins: u32) -> Voltage {
        assert!(fins > 0, "fin count must be at least 1");
        self.sigma_single_fin / f64::from(fins).sqrt()
    }
}

/// Draws random Vt shifts for devices.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sram_device::{DeviceLibrary, FinFet, VtFlavor, VtSampler};
///
/// let lib = DeviceLibrary::sevennm();
/// let nominal = FinFet::new(lib.nfet(VtFlavor::Hvt).clone(), 1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let mut sampler = VtSampler::new(&mut rng);
/// let sample = sampler.perturb(&nominal);
/// assert_ne!(sample, nominal);
/// ```
#[derive(Debug)]
pub struct VtSampler<'r, R: Rng> {
    rng: &'r mut R,
}

impl<'r, R: Rng> VtSampler<'r, R> {
    /// Creates a sampler over the provided random-number generator.
    pub fn new(rng: &'r mut R) -> Self {
        Self { rng }
    }

    /// Draws a standard-normal variate via Box-Muller (keeps the `rand`
    /// dependency to the core trait, no `rand_distr` needed).
    fn standard_normal(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.random();
            let u2: f64 = self.rng.random();
            if u1 > f64::MIN_POSITIVE {
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (2.0 * core::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Draws a random Vt shift for a device with the given variation model
    /// and fin count.
    fn sample_shift(&mut self, model: VariationModel, fins: u32) -> Voltage {
        model.sigma(fins) * self.standard_normal()
    }

    /// Returns a copy of `device` with a freshly sampled Vt shift applied.
    pub fn perturb(&mut self, device: &FinFet) -> FinFet {
        let model = VariationModel::from_params(device.params());
        let shift = self.sample_shift(model, device.fins());
        device.clone().with_vt_shift(shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::sevennm_card;
    use crate::{Polarity, VtFlavor};
    use rand::SeedableRng;

    #[test]
    fn sigma_shrinks_with_fins() {
        let m = VariationModel {
            sigma_single_fin: Voltage::from_millivolts(28.0),
        };
        assert!((m.sigma(4).millivolts() - 14.0).abs() < 1e-9);
        assert!(m.sigma(1) > m.sigma(2));
    }

    #[test]
    #[should_panic(expected = "fin count")]
    fn sigma_of_zero_fins_panics() {
        let m = VariationModel {
            sigma_single_fin: Voltage::from_millivolts(28.0),
        };
        let _ = m.sigma(0);
    }

    #[test]
    fn sample_statistics_match_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut sampler = VtSampler::new(&mut rng);
        let m = VariationModel {
            sigma_single_fin: Voltage::from_millivolts(28.0),
        };
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| sampler.sample_shift(m, 1).millivolts())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.6, "mean {mean} mV");
        assert!((var.sqrt() - 28.0).abs() < 1.0, "sigma {} mV", var.sqrt());
    }

    #[test]
    fn perturb_is_reproducible_with_seed() {
        let dev = FinFet::new(sevennm_card(Polarity::N, VtFlavor::Hvt), 1);
        let perturbed = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            VtSampler::new(&mut rng).perturb(&dev)
        };
        assert_eq!(perturbed(7), perturbed(7));
        assert_ne!(perturbed(7), perturbed(8));
        assert_ne!(perturbed(7), dev);
    }
}
