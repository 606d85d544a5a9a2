//! Row-major dense matrices with the operations the estimators need:
//! multiplication, transpose, LU factorisation with partial pivoting and
//! linear solves.
//!
//! The matrices in this workspace are tiny (5×5 SMP state matrices,
//! (p+q)×(p+q) normal equations with p, q ≤ 16), so a straightforward dense
//! implementation is both the simplest and the fastest option — no blocking,
//! no SIMD, no allocation tricks required.

use std::fmt;
use std::ops::{Index, IndexMut, Mul};

/// A dense, row-major `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors produced by matrix factorisations and solves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// The matrix was singular (or numerically so) at the given pivot column.
    Singular {
        /// Column index at which no usable pivot was found.
        pivot: usize,
    },
    /// Operand shapes were incompatible for the requested operation.
    ShapeMismatch {
        /// The `(rows, cols)` shape the operation required.
        expected: (usize, usize),
        /// The `(rows, cols)` shape that was supplied.
        got: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            MatrixError::ShapeMismatch { expected, got } => write!(
                f,
                "shape mismatch: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from nested row slices (handy in tests).
    ///
    /// # Panics
    /// Panics if the rows are ragged or empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows one row as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Maximum absolute entry (infinity norm of the flattened matrix).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// LU factorisation with partial pivoting.
    ///
    /// Returns the packed factors and the row permutation. The factors satisfy
    /// `P * self = L * U` with unit-diagonal `L`.
    pub fn lu(&self) -> Result<Lu, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::ShapeMismatch {
                expected: (self.rows, self.rows),
                got: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut max = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-13 {
                return Err(MatrixError::Singular { pivot: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let factor = a[(i, k)] / pivot;
                a[(i, k)] = factor;
                for j in (k + 1)..n {
                    a[(i, j)] -= factor * a[(k, j)];
                }
            }
        }
        Ok(Lu { lu: a, perm })
    }

    /// Solves `self * x = b` via LU with partial pivoting.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        self.lu().map(|lu| lu.solve(b))
    }
}

/// Packed LU factors with the row permutation, as returned by [`Matrix::lu`].
pub struct Lu {
    lu: Matrix,
    perm: Vec<usize>,
}

impl Lu {
    /// Solves `A x = b` using the precomputed factors.
    ///
    /// # Panics
    /// Panics if `b.len()` does not match the factorised dimension.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Apply permutation.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let dot: f64 = self.lu.row(i)[..i]
                .iter()
                .zip(&y[..i])
                .map(|(l, v)| l * v)
                .sum();
            y[i] -= dot;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let dot: f64 = self.lu.row(i)[i + 1..]
                .iter()
                .zip(&y[i + 1..])
                .map(|(u, v)| u * v)
                .sum();
            y[i] = (y[i] - dot) / self.lu[(i, i)];
        }
        y
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix multiply");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn identity_solve_is_noop() {
        let i = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = i.solve(&b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-10));
        assert!(approx_eq(x[1], 3.0, 1e-10));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!(approx_eq(x[0], 3.0, 1e-12));
        assert!(approx_eq(x[1], 2.0, 1e-12));
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(MatrixError::Singular { .. })
        ));
    }

    #[test]
    fn non_square_lu_is_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(MatrixError::ShapeMismatch { .. })));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = a.mul_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(a, t.transpose());
    }
}
