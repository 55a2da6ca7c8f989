//! Compressed Sparse Column storage.
//!
//! §II-B-a of the paper notes early non-structured pruning work (Han et al.)
//! stored pruned models in CSC. It is included here both as a baseline
//! storage format and because the transposed products in backpropagation map
//! naturally onto it.

use rtm_tensor::{Matrix, ShapeError};

/// A sparse matrix in compressed-sparse-column format.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CscMatrix {
    /// Builds a CSC matrix from a dense one, keeping entries that are not
    /// exactly zero.
    pub fn from_dense(dense: &Matrix) -> CscMatrix {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0u32);
        for c in 0..cols {
            for r in 0..rows {
                let v = dense[(r, c)];
                if v != 0.0 {
                    row_idx.push(r as u32);
                    values.push(v);
                }
            }
            col_ptr.push(values.len() as u32);
        }
        CscMatrix {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column-pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// Row index of every nonzero, column-major.
    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    /// Value of every nonzero, column-major.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Sparse matrix-vector product `y = A x` (scatter formulation).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
        if x.len() != self.cols {
            return Err(ShapeError {
                op: "csc_spmv",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0f32; self.rows];
        for (c, &xc) in x.iter().enumerate().take(self.cols) {
            if xc == 0.0 {
                continue;
            }
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            for i in start..end {
                y[self.row_idx[i] as usize] += self.values[i] * xc;
            }
        }
        Ok(y)
    }

    /// Allocation-free SpMV into a caller-provided buffer (scatter
    /// formulation; `y` is zeroed first).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != self.cols()` or
    /// `y.len() != self.rows()`.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), ShapeError> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(ShapeError {
                op: "csc_spmv_into",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), y.len()),
            });
        }
        y.fill(0.0);
        for (c, &xc) in x.iter().enumerate().take(self.cols) {
            if xc == 0.0 {
                continue;
            }
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            for i in start..end {
                y[self.row_idx[i] as usize] += self.values[i] * xc;
            }
        }
        Ok(())
    }

    /// Transposed product `y = Aᵀ x` (a gather per column — cheap in CSC).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != self.rows()`.
    pub fn spmv_transposed(&self, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
        if x.len() != self.rows {
            return Err(ShapeError {
                op: "csc_spmv_transposed",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        let mut y = vec![0.0f32; self.cols];
        for (c, yc) in y.iter_mut().enumerate() {
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            let mut acc = 0.0f32;
            for i in start..end {
                acc += self.values[i] * x[self.row_idx[i] as usize];
            }
            *yc = acc;
        }
        Ok(y)
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for c in 0..self.cols {
            let start = self.col_ptr[c] as usize;
            let end = self.col_ptr[c + 1] as usize;
            for i in start..end {
                m[(self.row_idx[i] as usize, c)] = self.values[i];
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseKernel;
    use rtm_tensor::gemm;

    fn example() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 5.0, 0.0], &[0.0, 3.0, 4.0]]).unwrap()
    }

    #[test]
    fn roundtrip() {
        let d = example();
        let csc = CscMatrix::from_dense(&d);
        assert_eq!(csc.nnz(), 5);
        assert_eq!(csc.to_dense(), d);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = example();
        let csc = CscMatrix::from_dense(&d);
        let x = vec![1.0, -2.0, 0.5];
        assert_eq!(csc.spmv(&x).unwrap(), gemm::gemv(&d, &x).unwrap());
    }

    #[test]
    fn transposed_spmv_matches_dense() {
        let d = example();
        let csc = CscMatrix::from_dense(&d);
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(
            csc.spmv_transposed(&x).unwrap(),
            gemm::gemv_transposed(&d, &x).unwrap()
        );
    }

    #[test]
    fn shape_errors() {
        let csc = CscMatrix::from_dense(&example());
        assert!(csc.spmv(&[1.0]).is_err());
        assert!(csc.spmv_transposed(&[1.0]).is_err());
    }

    #[test]
    fn empty_and_zero() {
        assert_eq!(CscMatrix::from_dense(&Matrix::zeros(0, 0)).nnz(), 0);
        let z = CscMatrix::from_dense(&Matrix::zeros(2, 3));
        assert_eq!(z.spmv(&[1.0; 3]).unwrap(), vec![0.0; 2]);
    }

    /// Randomized (seed-driven) CSC-vs-CSR SpMV agreement.
    #[test]
    fn prop_csc_equals_csr() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..10);
            let cols = rng.gen_range(1usize..10);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.4 {
                    0.0
                } else {
                    v
                }
            });
            let x: Vec<f32> = (0..cols).map(|i| (i as f32 * 0.3).cos()).collect();
            let via_csc = CscMatrix::from_dense(&dense).spmv(&x).unwrap();
            let via_csr = crate::CsrMatrix::from_dense(&dense).spmv(&x).unwrap();
            for (a, b) in via_csc.iter().zip(&via_csr) {
                assert!((a - b).abs() < 1e-4, "seed {seed}");
            }
        }
    }
}
