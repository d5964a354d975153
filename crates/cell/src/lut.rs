//! One-dimensional look-up tables with linear interpolation.
//!
//! The paper stores SPICE-measured quantities "with dependencies on a
//! variable … in look-up tables"; this is that table.

use crate::CellError;

/// A 1-D look-up table mapping `x` to `y` with linear interpolation and
/// end-clamping.
///
/// # Examples
///
/// ```
/// use sram_cell::Lut1d;
///
/// # fn main() -> Result<(), sram_cell::CellError> {
/// let lut = Lut1d::new(vec![(0.0, 1.0), (1.0, 3.0)])?;
/// assert_eq!(lut.eval(0.5), 2.0);
/// assert_eq!(lut.eval(9.0), 3.0); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lut1d {
    points: Vec<(f64, f64)>,
}

impl Lut1d {
    /// Creates a table from `(x, y)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`CellError::MeasurementFailed`] when fewer than one point
    /// is supplied or the breakpoints are not strictly increasing in `x`.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, CellError> {
        if points.is_empty() {
            return Err(CellError::MeasurementFailed {
                what: "LUT",
                reason: "need at least one breakpoint".into(),
            });
        }
        if !points.windows(2).all(|w| w[1].0 > w[0].0) {
            return Err(CellError::MeasurementFailed {
                what: "LUT",
                reason: "breakpoints must be strictly increasing".into(),
            });
        }
        Ok(Self { points })
    }

    /// Interpolated value at `x` (clamped to the table range).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        let last = pts.len() - 1;
        if x >= pts[last].0 {
            return pts[last].1;
        }
        let idx = pts.partition_point(|&(px, _)| px <= x);
        let (x0, y0) = pts[idx - 1];
        let (x1, y1) = pts[idx];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The stored breakpoints.
    #[must_use]
    pub fn breakpoints(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Domain of the table, `(x_min, x_max)`.
    #[must_use]
    pub fn domain(&self) -> (f64, f64) {
        (self.points[0].0, self.points[self.points.len() - 1].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_constant() {
        let lut = Lut1d::new(vec![(2.0, 5.0)]).unwrap();
        assert_eq!(lut.eval(-10.0), 5.0);
        assert_eq!(lut.eval(10.0), 5.0);
    }

    #[test]
    fn interpolates_linearly() {
        let lut = Lut1d::new(vec![(0.0, 0.0), (2.0, 4.0), (3.0, 0.0)]).unwrap();
        assert_eq!(lut.eval(1.0), 2.0);
        assert_eq!(lut.eval(2.5), 2.0);
    }

    #[test]
    fn rejects_unsorted() {
        assert!(Lut1d::new(vec![(1.0, 0.0), (0.0, 0.0)]).is_err());
        assert!(Lut1d::new(vec![]).is_err());
        assert!(Lut1d::new(vec![(1.0, 0.0), (1.0, 2.0)]).is_err());
    }
}
