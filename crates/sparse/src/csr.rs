//! Compressed Sparse Row storage.
//!
//! CSR is the format the paper's unstructured baselines (ESE) must use: every
//! nonzero carries an explicit `u32` column index, and each SpMV row walk
//! performs an indirect gather through those indices — the "decoding of each
//! stored index" overhead §II-B-a calls out.
//!
//! CSR is the baseline the BSPC kernels are measured against, at f32: it
//! holds one f32 value store, and a kernel call at f16 or int8 is
//! [`KernelError::NotHeld`].

use crate::footprint::Precision;
use crate::kernel::{Activations, KernelError, SparseKernel};
use rtm_tensor::Matrix;
use std::ops::Range;

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants (maintained by construction, checked by `debug_assert`s):
/// `row_ptr.len() == rows + 1`, `row_ptr` is non-decreasing,
/// `row_ptr[rows] == values.len() == col_idx.len()`, and column indices are
/// strictly increasing within each row.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense one, keeping entries that are not
    /// exactly zero.
    pub fn from_dense(dense: &Matrix) -> CsrMatrix {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c as u32);
                    values.push(v);
                }
            }
            row_ptr.push(values.len() as u32);
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Rows that would share one symmetric int8 scale. CSR has no stripe
    /// structure to hang scales on, so [`crate::Footprint::csr`] prices an
    /// int8 CSR store with a scale per fixed block of 8 rows — the
    /// granularity ESE-style row batching uses. A pricing convention only:
    /// the matrix holds f32.
    pub const ROW_BLOCK: usize = 8;

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

    /// Row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Nonzero count of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row out of bounds");
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// The `(column, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(r < self.rows, "row out of bounds");
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// f32 [`SparseKernel::spmv_prec_into`] under its pre-trait inherent
    /// name (a one-line forward to the generic driver, kept for callers
    /// that do not import the trait).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] when `x.len() != self.cols()` or
    /// `y.len() != self.rows()`.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), KernelError> {
        self.spmv_prec_into(Precision::F32, x, y)
    }

    /// The row kernel over the row range `rows` for `b` lanes: one
    /// lane-major indexed dot per row over its f32 values. Each row's column
    /// indices are decoded **once** and applied to all `b` lanes — the
    /// index-traversal cost §II-B-a identifies is amortized `b`×. Output row
    /// `r` lands at `ys[(r - y_base) · b ..]`; every row in the range is
    /// written (empty rows get 0).
    fn float_rows_into(
        &self,
        values: &[f32],
        xs: &[f32],
        b: usize,
        rows: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = rtm_tensor::simd::active_variant();
        let outs = ys[(rows.start - y_base) * b..].chunks_exact_mut(b);
        for (r, out) in rows.zip(outs) {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let (vals, idx) = (&values[start..end], &self.col_idx[start..end]);
            rtm_tensor::simd::indexed_dot_batch_variant(v, vals, idx, xs, b, out);
        }
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] = v;
            }
        }
        m
    }
}

/// Partition units are rows, costed by their nonzero count.
impl SparseKernel for CsrMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn trace_keys(&self) -> &'static rtm_trace::key::KernelKeys {
        &rtm_trace::key::KERNEL_CSR
    }

    fn stored_len(&self) -> usize {
        self.values.len()
    }

    fn units(&self) -> usize {
        self.rows
    }

    fn unit_cost(&self, u: usize) -> usize {
        self.row_nnz(u)
    }

    fn unit_first_row(&self, u: usize) -> usize {
        u
    }

    /// The f32 store only.
    fn holds(&self, prec: Precision) -> bool {
        prec == Precision::F32
    }

    fn needs_zero_fill(&self) -> bool {
        false
    }

    fn rows_into(
        &self,
        activations: Activations<'_>,
        b: usize,
        units: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        match activations {
            Activations::F32(xs) => self.float_rows_into(&self.values, xs, b, units, ys, y_base),
            Activations::F16(_) | Activations::Int8 { .. } => {
                unreachable!("`drive` refuses a precision CSR does not hold")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_tensor::gemm;

    fn example() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_roundtrip() {
        let d = example();
        let csr = CsrMatrix::from_dense(&d);
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.rows(), 3);
        assert_eq!(csr.cols(), 4);
        assert_eq!(csr.to_dense(), d);
    }

    #[test]
    fn row_structure() {
        let csr = CsrMatrix::from_dense(&example());
        assert_eq!(csr.row_nnz(0), 2);
        assert_eq!(csr.row_nnz(1), 0);
        assert_eq!(csr.row_nnz(2), 2);
        let entries: Vec<_> = csr.row_entries(2).collect();
        assert_eq!(entries, vec![(1, 3.0), (3, 4.0)]);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = example();
        let csr = CsrMatrix::from_dense(&d);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let want = gemm::gemv(&d, &x).unwrap();
        assert_eq!(csr.spmv(&x).unwrap(), want);
    }

    #[test]
    fn spmv_shape_error() {
        let csr = CsrMatrix::from_dense(&example());
        assert!(csr.spmv(&[1.0]).is_err());
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(0, 0));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.spmv(&[]).unwrap(), Vec::<f32>::new());
    }

    #[test]
    fn all_zero_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(3, 3));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.spmv(&[1.0, 1.0, 1.0]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn spmm_lanes_match_spmv_columns() {
        let csr = CsrMatrix::from_dense(&example());
        for b in [1usize, 2, 4, 7, 8, 9] {
            let xs: Vec<f32> = (0..4 * b).map(|i| (i as f32 * 0.31).cos()).collect();
            let mut ys = vec![f32::NAN; 3 * b];
            csr.spmm_prec_into(Precision::F32, &xs, b, &mut ys).unwrap();
            assert_eq!(csr.spmm(&xs, b).unwrap(), ys);
            for j in 0..b {
                let col: Vec<f32> = (0..4).map(|c| xs[c * b + j]).collect();
                let want = csr.spmv(&col).unwrap();
                for r in 0..3 {
                    assert_eq!(ys[r * b + j], want[r], "b={b} lane {j} row {r}");
                }
            }
        }
        // Shape errors.
        assert!(csr
            .spmm_prec_into(Precision::F32, &[0.0; 3], 2, &mut [0.0; 6])
            .is_err());
        assert!(csr
            .spmm_prec_into(Precision::F32, &[0.0; 8], 2, &mut [0.0; 5])
            .is_err());
    }

    /// Randomized (seed-driven) dense↔CSR round-trip.
    #[test]
    fn prop_roundtrip() {
        for seed in 0u64..300 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..12);
            let cols = rng.gen_range(1usize..12);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let csr = CsrMatrix::from_dense(&dense);
            assert_eq!(csr.to_dense(), dense, "seed {seed}");
            assert_eq!(csr.nnz(), dense.count_nonzero(), "seed {seed}");
        }
    }

    /// Randomized SpMV-vs-GEMV agreement.
    #[test]
    fn prop_spmv_equals_gemv() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..10);
            let cols = rng.gen_range(1usize..10);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.3 {
                    0.0
                } else {
                    v
                }
            });
            let x: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
            let want = gemm::gemv(&dense, &x).unwrap();
            let got = CsrMatrix::from_dense(&dense).spmv(&x).unwrap();
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-4, "seed {seed}");
            }
        }
    }
}
