//! Compressed Sparse Row storage.
//!
//! CSR is the format the paper's unstructured baselines (ESE) must use: every
//! nonzero carries an explicit `u32` column index, and each SpMV row walk
//! performs an indirect gather through those indices — the "decoding of each
//! stored index" overhead §II-B-a calls out.

use crate::footprint::Precision;
use crate::kernel::{Activations, SparseKernel};
use crate::scratch::{self, FloatValues};
use rtm_tensor::{Matrix, ShapeError};
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
    /// `values` as raw f16 bit patterns (fp16 weight-storage sidecar).
    values_f16: Vec<u16>,
    /// `values` as int8 codes under the per-row-block scales.
    values_i8: Vec<i8>,
    /// Symmetric int8 scale per block of [`CsrMatrix::ROW_BLOCK`] rows.
    scales_i8: Vec<f32>,
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
        let mut m = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
            values_f16: Vec::new(),
            values_i8: Vec::new(),
            scales_i8: Vec::new(),
        };
        m.build_sidecars();
        m
    }

    /// Rows sharing one symmetric int8 scale. CSR has no stripe structure to
    /// hang scales on, so the int8 sidecar uses fixed blocks of 8 rows — the
    /// same granularity ESE-style row batching uses.
    pub const ROW_BLOCK: usize = 8;

    /// Rebuilds the f16 and int8 sidecars from `values` (deterministic, so
    /// the `PartialEq` derive and serialization round trips are unaffected).
    fn build_sidecars(&mut self) {
        self.values_f16 = rtm_tensor::f16::f32_to_f16_bits(&self.values);
        let nb = self.rows.div_ceil(Self::ROW_BLOCK);
        let mut max_abs = vec![0.0f32; nb];
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let m = &mut max_abs[r / Self::ROW_BLOCK];
            for &v in &self.values[start..end] {
                *m = m.max(v.abs());
            }
        }
        self.scales_i8 = max_abs
            .iter()
            .map(|&m| {
                if m > 0.0 && m.is_finite() {
                    m / 127.0
                } else {
                    1.0
                }
            })
            .collect();
        self.values_i8 = vec![0; self.values.len()];
        for r in 0..self.rows {
            let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let scale = self.scales_i8[r / Self::ROW_BLOCK];
            for i in start..end {
                self.values_i8[i] = (self.values[i] / scale).round().clamp(-127.0, 127.0) as i8;
            }
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
    /// Returns [`ShapeError`] when `x.len() != self.cols()` or
    /// `y.len() != self.rows()`.
    pub fn spmv_into(&self, x: &[f32], y: &mut [f32]) -> Result<(), ShapeError> {
        self.spmv_prec_into(Precision::F32, x, y)
    }

    /// The float row kernel over the row range `rows` for `b` lanes: one
    /// lane-major indexed dot per row over its `values` (the f32 plane or
    /// the decoded f16 sidecar). Each row's column indices are decoded
    /// **once** and applied to all `b` lanes — the index-traversal cost
    /// §II-B-a identifies is amortized `b`×. Output row `r` lands at
    /// `ys[(r - y_base) · b ..]`; every row in the range is written (empty
    /// rows get 0).
    fn float_rows_into(
        &self,
        values: impl FloatValues,
        xs: &[f32],
        b: usize,
        rows: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = rtm_tensor::simd::active_variant();
        let outs = ys[(rows.start - y_base) * b..].chunks_exact_mut(b);
        scratch::with_kernel(|scratch| {
            for (r, out) in rows.zip(outs) {
                let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                let vals = values.run(start..end, &mut scratch.conv);
                let idx = &self.col_idx[start..end];
                rtm_tensor::simd::indexed_dot_batch_variant(v, vals, idx, xs, b, out);
            }
        });
    }

    /// The int8 row kernel over the row range `rows` on pre-quantized
    /// lane-major activations `xq` with per-lane scales `sxs`: the row's
    /// codes are gathered once, lane-major, and a CSR row is a single scale
    /// segment ([`CsrMatrix::ROW_BLOCK`] rows share a scale) of the fused
    /// tile — `sxs[j] · (acc_j · scale)` with exact i32 accumulation.
    fn int8_rows_into(
        &self,
        xq: &[i8],
        sxs: &[f32],
        b: usize,
        rows: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = rtm_tensor::simd::active_variant();
        let outs = ys[(rows.start - y_base) * b..].chunks_exact_mut(b);
        scratch::with_kernel(|scratch| {
            let gi8 = &mut scratch.gi8;
            for (r, out) in rows.zip(outs) {
                let (start, end) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                scratch::gather_i8(gi8, &self.col_idx[start..end], xq, b);
                rtm_tensor::simd_i8::row_block_dots_batch_i8(
                    v,
                    &self.values_i8[start..end],
                    gi8,
                    b,
                    &[(end - start) as u32],
                    &[self.scales_i8[r / Self::ROW_BLOCK]],
                    sxs,
                    out,
                );
            }
        });
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
            Activations::F32(xs) => {
                self.float_rows_into(self.values.as_slice(), xs, b, units, ys, y_base)
            }
            Activations::F16(xs) => {
                self.float_rows_into(self.values_f16.as_slice(), xs, b, units, ys, y_base)
            }
            Activations::Int8 { codes, scales } => {
                self.int8_rows_into(codes, scales, b, units, ys, y_base)
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

    #[test]
    fn f16_kernels_match_f32_on_rounded_values() {
        let mut rng = rtm_tensor::init::rng_from_seed(51);
        let d = rtm_tensor::init::uniform(20, 14, -1.0, 1.0, &mut rng).map(|v| {
            if v.abs() < 0.4 {
                0.0
            } else {
                rtm_tensor::f16::quantize_f16(v)
            }
        });
        let m = CsrMatrix::from_dense(&d);
        let x: Vec<f32> = (0..14).map(|i| (i as f32 * 0.43).sin()).collect();
        let want = m.spmv(&x).unwrap();
        let mut got = vec![f32::NAN; 20];
        m.spmv_prec_into(Precision::F16, &x, &mut got).unwrap();
        assert_eq!(got, want);
        let b = 4usize;
        let xs: Vec<f32> = (0..14 * b).map(|i| (i as f32 * 0.19).cos()).collect();
        let mut ys = vec![f32::NAN; 20 * b];
        m.spmm_prec_into(Precision::F16, &xs, b, &mut ys).unwrap();
        let mut want_m = vec![0.0f32; 20 * b];
        m.spmm_prec_into(Precision::F32, &xs, b, &mut want_m)
            .unwrap();
        assert_eq!(ys, want_m);
    }

    #[test]
    fn i8_kernels_bounded_and_lane_consistent() {
        let mut rng = rtm_tensor::init::rng_from_seed(62);
        let d = rtm_tensor::init::uniform(19, 13, -1.5, 1.5, &mut rng).map(|v| {
            if v.abs() < 0.4 {
                0.0
            } else {
                v
            }
        });
        let m = CsrMatrix::from_dense(&d);
        assert_eq!(m.scales_i8.len(), 19usize.div_ceil(CsrMatrix::ROW_BLOCK));
        let x: Vec<f32> = (0..13).map(|i| (i as f32 * 0.61).sin()).collect();
        let want = gemm::gemv(&d, &x).unwrap();
        let mut got = vec![0.0f32; 19];
        m.spmv_prec_into(Precision::Int8, &x, &mut got).unwrap();
        let wmax = d.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let xmax = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let smax = m.scales_i8.iter().fold(0.0f32, |a, v| a.max(*v));
        let sx = xmax / 127.0;
        let bound = 13.0 * (0.5 * smax * xmax + 0.5 * sx * wmax + 0.25 * smax * sx) + 1e-4;
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() <= bound, "{w} vs {g} (bound {bound})");
        }
        // Batched int8 lanes are exactly the serial int8 columns.
        for b in [1usize, 3, 6] {
            let xs: Vec<f32> = (0..13 * b).map(|i| (i as f32 * 0.83).cos()).collect();
            let mut ys = vec![f32::NAN; 19 * b];
            m.spmm_prec_into(Precision::Int8, &xs, b, &mut ys).unwrap();
            for j in 0..b {
                let col: Vec<f32> = (0..13).map(|c| xs[c * b + j]).collect();
                let mut yy = vec![0.0f32; 19];
                m.spmv_prec_into(Precision::Int8, &col, &mut yy).unwrap();
                for r in 0..19 {
                    assert_eq!(ys[r * b + j], yy[r], "b={b} lane {j} row {r}");
                }
            }
        }
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
