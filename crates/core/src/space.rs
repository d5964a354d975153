//! The optimization design space.

use sram_units::Voltage;

/// Ranges of the four searched variables (Section 5):
/// `V_SSC ∈ {0, −10 mV, …, −240 mV}`, `n_r ∈ {2¹, …, 2¹⁰}`,
/// `N_pre ∈ {1, …, 50}`, `N_wr ∈ {1, …, 20}`.
///
/// # Examples
///
/// ```
/// use sram_coopt::DesignSpace;
///
/// let space = DesignSpace::paper_default();
/// assert_eq!(space.vssc_values().len(), 25);
/// assert_eq!(space.npre_values(), (1..=50).collect::<Vec<u32>>());
/// assert_eq!(space.nwr_values(), (1..=20).collect::<Vec<u32>>());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    vssc_values: Vec<Voltage>,
    rows_range: (u32, u32),
    npre_range: (u32, u32),
    nwr_range: (u32, u32),
    npre_stride: u32,
    nwr_stride: u32,
}

impl DesignSpace {
    /// The paper's Section 5 ranges.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            // `0 − 10k`, not `−10 × k`: the first level is +0, which
            // prints as `0`, where `−10 × 0` is −0 and prints as `-0`.
            vssc_values: (0..=24)
                .map(|k| Voltage::from_millivolts(0.0 - 10.0 * f64::from(k)))
                .collect(),
            rows_range: (2, 1024),
            npre_range: (1, 50),
            nwr_range: (1, 20),
            npre_stride: 1,
            nwr_stride: 1,
        }
    }

    /// A coarse space for fast tests/smoke runs: `V_SSC` in 60 mV steps,
    /// `N_pre ∈ {1…50}` in steps of 7, `N_wr ∈ {1…20}` in steps of 5.
    #[must_use]
    pub fn coarse() -> Self {
        Self {
            vssc_values: (0..=4)
                .map(|k| Voltage::from_millivolts(0.0 - 60.0 * f64::from(k)))
                .collect(),
            ..Self::paper_default()
        }
        .with_strides(7, 5)
    }

    /// Replaces the `V_SSC` candidate list.
    #[must_use]
    pub fn with_vssc_values(mut self, values: Vec<Voltage>) -> Self {
        self.vssc_values = values;
        self
    }

    /// Restricts `V_SSC` to `{0}` (the M1 policy: no negative rail).
    #[must_use]
    pub fn without_negative_gnd(mut self) -> Self {
        self.vssc_values = vec![Voltage::ZERO];
        self
    }

    /// Restricts the row range.
    #[must_use]
    pub fn with_rows_range(mut self, min: u32, max: u32) -> Self {
        self.rows_range = (min, max);
        self
    }

    /// Subsamples the fin ranges with the given strides (coarse search).
    #[must_use]
    pub fn with_strides(self, npre_stride: u32, nwr_stride: u32) -> Self {
        let mut out = self;
        out.npre_stride = npre_stride.max(1);
        out.nwr_stride = nwr_stride.max(1);
        out
    }

    /// The `V_SSC` candidates.
    #[must_use]
    pub fn vssc_values(&self) -> &[Voltage] {
        &self.vssc_values
    }

    /// Inclusive row-count range (power-of-two values within are used).
    #[must_use]
    pub fn rows_range(&self) -> (u32, u32) {
        self.rows_range
    }

    /// `N_pre` candidates (range with stride).
    #[must_use]
    pub fn npre_values(&self) -> Vec<u32> {
        (self.npre_range.0..=self.npre_range.1)
            .step_by(self.npre_stride as usize)
            .collect()
    }

    /// `N_wr` candidates (range with stride).
    #[must_use]
    pub fn nwr_values(&self) -> Vec<u32> {
        (self.nwr_range.0..=self.nwr_range.1)
            .step_by(self.nwr_stride as usize)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section5() {
        let s = DesignSpace::paper_default();
        assert_eq!(s.vssc_values().len(), 25);
        assert_eq!(s.vssc_values()[0], Voltage::ZERO);
        assert_eq!(
            *s.vssc_values().last().unwrap(),
            Voltage::from_millivolts(-240.0)
        );
        assert_eq!(s.rows_range(), (2, 1024));
        assert_eq!(s.npre_values().len(), 50);
        assert_eq!(s.nwr_values().len(), 20);
    }

    #[test]
    fn no_vssc_level_is_negative_zero() {
        for space in [DesignSpace::paper_default(), DesignSpace::coarse()] {
            for v in space.vssc_values() {
                assert_ne!(v.volts().to_bits(), (-0.0_f64).to_bits(), "{v:?}");
            }
        }
    }

    #[test]
    fn m1_restriction_removes_negative_rail() {
        let s = DesignSpace::paper_default().without_negative_gnd();
        assert_eq!(s.vssc_values(), &[Voltage::ZERO]);
    }

    #[test]
    fn strides_subsample() {
        let s = DesignSpace::paper_default().with_strides(10, 5);
        assert_eq!(s.npre_values(), vec![1, 11, 21, 31, 41]);
        assert_eq!(s.nwr_values(), vec![1, 6, 11, 16]);
    }
}
