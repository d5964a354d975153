//! Dense LU factorization with partial pivoting.
//!
//! Circuits in this workspace are tiny (a 6T cell plus periphery is well
//! under 50 unknowns), so a dense solver beats any sparse machinery and
//! keeps the crate dependency-free.
//!
//! Forward elimination skips exact zeros: it updates a row only at the
//! columns right of the pivot where the pivot row is nonzero (27 of the
//! 121 entries of a VTC sweep's Jacobian are). Storage, pivot order and
//! back substitution stay dense, and the solution is the full update's
//! to the bit: partial pivoting keeps `|factor| ≤ 1`, so `a − factor·0`
//! is `a` unless `a` is −0, and no matrix holds −0 (it starts at +0,
//! stamps only add, and `x − x` is +0). Entries left of the pivot
//! column are never read again, so they are not updated. Back
//! substitution must not skip zeros: `sum − 0·b` turns a −0 `sum` into
//! +0, and a right-hand side can hold −0.

use crate::SpiceError;

/// A dense square matrix in row-major storage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension of the (square) matrix.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Resets all entries to zero, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.data.fill(0.0);
    }

    #[inline]
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.n + col]
    }

    #[inline]
    pub(crate) fn add(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] += value;
    }

    #[inline]
    pub(crate) fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.n + col] = value;
    }

    /// Solves `A x = b` in place (`b` becomes `x`), destroying `self`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMatrix`] when no usable pivot exists.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn solve_in_place(&mut self, b: &mut [f64]) -> Result<(), SpiceError> {
        sram_probe::probe_inc!(detail "spice.lu_factorizations");
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        // The pivot row's nonzero entries right of the pivot.
        let mut pivot_nonzeros: Vec<(usize, f64)> = Vec::with_capacity(n);
        // Forward elimination with partial pivoting.
        for col in 0..n {
            // Pivot search.
            let mut pivot_row = col;
            let mut pivot_mag = self.get(col, col).abs();
            for row in (col + 1)..n {
                let mag = self.get(row, col).abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1e-300 || !pivot_mag.is_finite() {
                return Err(SpiceError::SingularMatrix);
            }
            if pivot_row != col {
                for k in 0..n {
                    let a = self.get(col, k);
                    let b2 = self.get(pivot_row, k);
                    self.set(col, k, b2);
                    self.set(pivot_row, k, a);
                }
                b.swap(col, pivot_row);
            }
            let pivot = self.get(col, col);
            pivot_nonzeros.clear();
            pivot_nonzeros.extend(
                ((col + 1)..n)
                    .map(|k| (k, self.get(col, k)))
                    .filter(|&(_, a)| a != 0.0),
            );
            for row in (col + 1)..n {
                let factor = self.get(row, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for &(k, a) in &pivot_nonzeros {
                    let v = self.get(row, k) - factor * a;
                    self.set(row, k, v);
                }
                b[row] -= factor * b[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = b[col];
            for k in (col + 1)..n {
                sum -= self.get(col, k) * b[k];
            }
            b[col] = sum / self.get(col, col);
            if !b[col].is_finite() {
                return Err(SpiceError::SingularMatrix);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense forward elimination `solve_in_place` replaced: every
    /// row below the pivot is updated at every column from the pivot on.
    /// `solve_in_place` must return its result, solutions equal to the
    /// bit.
    #[allow(clippy::needless_range_loop)]
    fn dense_solve_in_place(m: &mut Matrix, b: &mut [f64]) -> Result<(), SpiceError> {
        let n = m.n;
        for col in 0..n {
            let mut pivot_row = col;
            let mut pivot_mag = m.get(col, col).abs();
            for row in (col + 1)..n {
                let mag = m.get(row, col).abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1e-300 || !pivot_mag.is_finite() {
                return Err(SpiceError::SingularMatrix);
            }
            if pivot_row != col {
                for k in 0..n {
                    let a = m.get(col, k);
                    let b2 = m.get(pivot_row, k);
                    m.set(col, k, b2);
                    m.set(pivot_row, k, a);
                }
                b.swap(col, pivot_row);
            }
            let pivot = m.get(col, col);
            for row in (col + 1)..n {
                let factor = m.get(row, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    let v = m.get(row, k) - factor * m.get(col, k);
                    m.set(row, k, v);
                }
                b[row] -= factor * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut sum = b[col];
            for k in (col + 1)..n {
                sum -= m.get(col, k) * b[k];
            }
            b[col] = sum / m.get(col, col);
            if !b[col].is_finite() {
                return Err(SpiceError::SingularMatrix);
            }
        }
        Ok(())
    }

    #[test]
    fn elimination_over_nonzeros_matches_the_dense_loop() {
        // 120,000 random systems, n 1-14, each with its own density of
        // nonzeros, magnitudes from 1e-12 to 1e12 of either sign, a row
        // sometimes a multiple of another (singular or nearly so), and
        // right-hand sides holding +0 and -0.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let magnitude = |unit: f64, sign: f64| sign * 10f64.powf(-12.0 + 24.0 * unit);
        let (mut solved, mut singular) = (0, 0);
        for system in 0..120_000 {
            let n = 1 + system % 14;
            let density = unit();
            let mut a = Matrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    if unit() < density {
                        let sign = if unit() < 0.5 { -1.0 } else { 1.0 };
                        a.set(i, j, magnitude(unit(), sign));
                    }
                }
            }
            if n > 1 && unit() < 0.125 {
                let (from, to) = (system % n, (system + 1) % n);
                let scale = magnitude(unit(), 1.0);
                for j in 0..n {
                    a.set(to, j, a.get(from, j) * scale);
                }
            }
            let rhs: Vec<f64> = (0..n)
                .map(|_| match unit() {
                    u if u < 0.25 => 0.0,
                    u if u < 0.5 => -0.0,
                    u => magnitude(unit(), if u < 0.75 { -1.0 } else { 1.0 }),
                })
                .collect();
            let (mut dense, mut x) = (a.clone(), rhs.clone());
            let mut oracle = rhs.clone();
            let expected = dense_solve_in_place(&mut dense, &mut oracle);
            let result = a.solve_in_place(&mut x);
            assert_eq!(result, expected, "system {system}");
            if result.is_ok() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x), bits(&oracle), "system {system}");
                solved += 1;
            } else {
                singular += 1;
            }
        }
        assert!(
            solved > 50_000 && singular > 20_000,
            "{solved} / {singular}"
        );
    }

    fn solve(a: &[&[f64]], b: &[f64]) -> Result<Vec<f64>, SpiceError> {
        let n = b.len();
        let mut m = Matrix::zeros(n);
        for (i, row) in a.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        let mut x = b.to_vec();
        m.solve_in_place(&mut x)?;
        Ok(x)
    }

    #[test]
    fn solves_identity() {
        let x = solve(&[&[1.0, 0.0], &[0.0, 1.0]], &[3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solves_2x2_requiring_pivot() {
        // First pivot is zero; partial pivoting must swap rows.
        let x = solve(&[&[0.0, 1.0], &[2.0, 1.0]], &[1.0, 4.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solves_3x3() {
        let x = solve(
            &[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]],
            &[8.0, -11.0, -3.0],
        )
        .unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
        assert!((x[2] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn rejects_singular() {
        let err = solve(&[&[1.0, 2.0], &[2.0, 4.0]], &[1.0, 2.0]).unwrap_err();
        assert_eq!(err, SpiceError::SingularMatrix);
    }

    #[test]
    fn clear_preserves_dimension() {
        let mut m = Matrix::zeros(3);
        m.set(1, 1, 5.0);
        m.clear();
        assert_eq!(m.dim(), 3);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn random_diagonally_dominant_systems_round_trip() {
        // Deterministic pseudo-random systems: A x_true = b, solve, compare.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) - 0.5
        };
        for n in [1usize, 2, 5, 9, 17] {
            let mut a = Matrix::zeros(n);
            for i in 0..n {
                let mut row_sum = 0.0;
                for j in 0..n {
                    let v = next();
                    a.set(i, j, v);
                    row_sum += v.abs();
                }
                a.add(i, i, row_sum + 1.0); // dominance => well conditioned
            }
            let x_true: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
            let mut b = vec![0.0; n];
            for i in 0..n {
                for j in 0..n {
                    b[i] += a.get(i, j) * x_true[j];
                }
            }
            let mut a_fact = a.clone();
            a_fact.solve_in_place(&mut b).unwrap();
            for i in 0..n {
                assert!(
                    (b[i] - x_true[i]).abs() < 1e-8,
                    "n={n} i={i}: {} vs {}",
                    b[i],
                    x_true[i]
                );
            }
        }
    }
}
