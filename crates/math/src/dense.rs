//! Small dense linear algebra: row-major matrices, LU with partial pivoting.
//!
//! Used as the reference solver the banded LU is validated against, for
//! element-local operations, and for the least-squares fits in diagnostics.
//! Not intended for large systems — the production path is
//! `landau_sparse::band`.

/// Row-major dense matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix {
    /// Row count.
    pub rows: usize,
    /// Column count.
    pub cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major slice.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols);
        DenseMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Raw data (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix–matrix product.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows);
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }
}

impl core::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// LU factorization with partial pivoting: `P A = L U`.
#[derive(Clone, Debug)]
pub struct DenseLu {
    lu: DenseMatrix,
    piv: Vec<usize>,
    /// Sign of the permutation (for determinants).
    pub sign: f64,
}

impl DenseLu {
    /// Factor a square matrix. Returns `None` if singular to working
    /// precision.
    pub fn factor(a: &DenseMatrix) -> Option<Self> {
        assert_eq!(a.rows, a.cols);
        let n = a.rows;
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < 1e-300 {
                return None;
            }
            if p != k {
                for j in 0..n {
                    let t = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = t;
                }
                piv.swap(k, p);
                sign = -sign;
            }
            let pivv = lu[(k, k)];
            for i in (k + 1)..n {
                let l = lu[(i, k)] / pivv;
                lu[(i, k)] = l;
                if l != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= l * ukj;
                    }
                }
            }
        }
        Some(DenseLu { lu, piv, sign })
    }

    /// Solve `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows;
        assert_eq!(b.len(), n);
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        // Forward: L y = Pb (unit lower).
        for i in 1..n {
            let s: f64 = (0..i).map(|j| self.lu[(i, j)] * x[j]).sum();
            x[i] -= s;
        }
        // Backward: U x = y.
        for i in (0..n).rev() {
            let s: f64 = ((i + 1)..n).map(|j| self.lu[(i, j)] * x[j]).sum();
            x[i] = (x[i] - s) / self.lu[(i, i)];
        }
        x
    }

    /// Determinant of the factored matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.lu.rows {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Solve a dense system in one call (factor + solve).
pub fn dense_solve(a: &DenseMatrix, b: &[f64]) -> Option<Vec<f64>> {
    DenseLu::factor(a).map(|lu| lu.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_mat(n: usize, seed: u64) -> DenseMatrix {
        // Simple LCG so the math crate avoids a rand dependency in unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += n as f64; // diagonally dominant
        }
        m
    }

    #[test]
    fn solve_identity() {
        let a = DenseMatrix::identity(5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let x = dense_solve(&a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_random_systems() {
        for n in [1usize, 2, 3, 7, 20, 40] {
            let a = rng_mat(n, n as u64 + 17);
            let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b = a.matvec(&xs);
            let x = dense_solve(&a, &b).unwrap();
            for i in 0..n {
                assert!((x[i] - xs[i]).abs() < 1e-9, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let x = dense_solve(&a, &[3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-14 && (x[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(DenseLu::factor(&a).is_none());
    }

    #[test]
    fn determinant() {
        let a = DenseMatrix::from_rows(2, 2, &[3.0, 1.0, 4.0, 2.0]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matmul_transpose_consistency() {
        let a = rng_mat(6, 3);
        let at = a.transpose();
        let aat = a.matmul(&at);
        // A Aᵀ is symmetric.
        for i in 0..6 {
            for j in 0..6 {
                assert!((aat[(i, j)] - aat[(j, i)]).abs() < 1e-12);
            }
        }
    }
}
