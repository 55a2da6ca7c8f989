//! Bank-Balanced Sparsity storage (the BBS scheme of Cao et al., which
//! RTMobile's Table I compares against).
//!
//! Each row is split into `num_banks` equal-width column banks and every
//! bank stores exactly `bank_nnz` entries (the maximum any bank needs;
//! lighter banks are padded with explicit zeros). The payoff is a fully
//! regular layout: every row owns `num_banks · bank_nnz` contiguous
//! `(value, column)` slots, so the inner loop needs no per-row pointer
//! chasing and the executor can partition by plain row count — per-row
//! cost is uniform by construction. The price is the padding: a matrix
//! whose nonzeros cluster in few banks stores (and multiplies) zeros for
//! the empty ones, which is exactly the trade the tuner measures when it
//! weighs BBS against BSPC/CSR per layer.

use crate::kernel::{Activations, SparseKernel};
use crate::scratch::{self, FloatValues};
use rtm_tensor::{Matrix, ShapeError};
use std::ops::Range;

/// A sparse matrix in bank-balanced (padded ELL) format.
///
/// Invariants (maintained by construction, checked in `from_parts`):
/// `values.len() == col_idx.len() == rows · num_banks · bank_nnz`, every
/// stored column index is `< cols`, and within a row the slots of bank `k`
/// occupy positions `[k · bank_nnz, (k+1) · bank_nnz)`. Padded slots carry
/// value `0.0` and a clamped in-range column, so every kernel can treat
/// all slots uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct BbsMatrix {
    rows: usize,
    cols: usize,
    num_banks: usize,
    bank_nnz: usize,
    /// Column of every slot, row-major (`rows × num_banks × bank_nnz`).
    col_idx: Vec<u32>,
    /// Value of every slot (padding slots store `0.0`).
    values: Vec<f32>,
    /// `values` as raw f16 bit patterns (fp16 weight-storage sidecar).
    values_f16: Vec<u16>,
    /// `values` as int8 codes under the per-row scales.
    scales_i8: Vec<f32>,
    values_i8: Vec<i8>,
}

impl BbsMatrix {
    /// Builds a bank-balanced matrix from a dense one, keeping entries
    /// that are not exactly zero. `bank_nnz` becomes the largest per-bank
    /// nonzero count any row needs; all other banks are zero-padded up to
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `num_banks` is zero or exceeds the
    /// column count.
    pub fn from_dense(dense: &Matrix, num_banks: usize) -> Result<BbsMatrix, ShapeError> {
        let (rows, cols) = dense.shape();
        if num_banks == 0 || num_banks > cols.max(1) {
            return Err(ShapeError {
                op: "bbs_from_dense",
                lhs: (rows, cols),
                rhs: (num_banks, 0),
            });
        }
        let bank_w = cols.div_ceil(num_banks).max(1);
        // Pass 1: the balance point — the largest per-(row, bank) count.
        let mut bank_nnz = 0usize;
        for r in 0..rows {
            let mut counts = vec![0usize; num_banks];
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    counts[c / bank_w] += 1;
                }
            }
            for &n in &counts {
                bank_nnz = bank_nnz.max(n);
            }
        }
        // Pass 2: pack row-major, bank by bank, padding with explicit
        // zeros at a clamped in-bank column (any valid column works: the
        // padded value is 0.0, so the slot contributes nothing).
        let slots = rows * num_banks * bank_nnz;
        let mut col_idx = Vec::with_capacity(slots);
        let mut values = Vec::with_capacity(slots);
        for r in 0..rows {
            let row = dense.row(r);
            for bank in 0..num_banks {
                let lo = bank * bank_w;
                let hi = ((bank + 1) * bank_w).min(cols);
                let mut stored = 0usize;
                // `lo` can exceed `hi` for a bank past the last column
                // (hi clamps to `cols`); such banks hold only padding.
                for (off, &v) in row[lo.min(hi)..hi].iter().enumerate() {
                    if v != 0.0 {
                        col_idx.push((lo + off) as u32);
                        values.push(v);
                        stored += 1;
                    }
                }
                let pad_col = lo.min(cols.saturating_sub(1)) as u32;
                for _ in stored..bank_nnz {
                    col_idx.push(pad_col);
                    values.push(0.0);
                }
            }
        }
        let mut m = BbsMatrix {
            rows,
            cols,
            num_banks,
            bank_nnz,
            col_idx,
            values,
            values_f16: Vec::new(),
            scales_i8: Vec::new(),
            values_i8: Vec::new(),
        };
        m.build_sidecars();
        Ok(m)
    }

    /// Rebuilds the f16 and int8 sidecars from `values`. BBS rows are the
    /// natural scale granularity (each row is one uniform slab), so the
    /// int8 sidecar carries one symmetric scale per row; padded slots
    /// quantize to code 0 and stay exact.
    fn build_sidecars(&mut self) {
        self.values_f16 = rtm_tensor::f16::f32_to_f16_bits(&self.values);
        let stride = self.row_stride();
        self.scales_i8 = (0..self.rows)
            .map(|r| {
                let m = self.values[r * stride..(r + 1) * stride]
                    .iter()
                    .fold(0.0f32, |a, v| a.max(v.abs()));
                if m > 0.0 && m.is_finite() {
                    m / 127.0
                } else {
                    1.0
                }
            })
            .collect();
        self.values_i8 = vec![0; self.values.len()];
        for r in 0..self.rows {
            let scale = self.scales_i8[r];
            for i in r * stride..(r + 1) * stride {
                self.values_i8[i] = (self.values[i] / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
    }

    /// Builds from raw parts (the deserialization path).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the arrays are inconsistent: bad bank
    /// count, slot arrays whose length is not `rows · num_banks · bank_nnz`,
    /// or an out-of-range column. (Bank membership of each slot is a
    /// construction property, not revalidated — padded slots may carry a
    /// clamped out-of-bank column.)
    pub fn from_parts(
        rows: usize,
        cols: usize,
        num_banks: usize,
        bank_nnz: usize,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<BbsMatrix, ShapeError> {
        let bad = || ShapeError {
            op: "bbs_from_parts",
            lhs: (rows, cols),
            rhs: (num_banks, bank_nnz),
        };
        if num_banks == 0 || num_banks > cols.max(1) {
            return Err(bad());
        }
        let slots = rows
            .checked_mul(num_banks)
            .and_then(|n| n.checked_mul(bank_nnz))
            .ok_or_else(bad)?;
        if col_idx.len() != slots || values.len() != slots {
            return Err(bad());
        }
        if col_idx.iter().any(|&c| c as usize >= cols) {
            return Err(bad());
        }
        let mut m = BbsMatrix {
            rows,
            cols,
            num_banks,
            bank_nnz,
            col_idx,
            values,
            values_f16: Vec::new(),
            scales_i8: Vec::new(),
            values_i8: Vec::new(),
        };
        m.build_sidecars();
        Ok(m)
    }

    /// Replaces the int8 sidecar with externally supplied codes and
    /// per-row scales (used by the decoder so stored codes round-trip
    /// bit-exactly instead of being re-derived from floats).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `codes` does not have one entry per
    /// stored slot or `scales` one entry per row.
    pub fn with_int8_sidecar(
        mut self,
        codes: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<BbsMatrix, ShapeError> {
        if codes.len() != self.values.len() || scales.len() != self.rows {
            return Err(ShapeError {
                op: "bbs_int8_sidecar",
                lhs: (self.rows, self.cols),
                rhs: (codes.len(), scales.len()),
            });
        }
        self.values_i8 = codes;
        self.scales_i8 = scales;
        Ok(self)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of column banks per row.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Stored entries per bank (identical for every row and bank).
    pub fn bank_nnz(&self) -> usize {
        self.bank_nnz
    }

    /// Columns spanned by each bank (the last bank may cover fewer).
    pub fn bank_width(&self) -> usize {
        self.cols.div_ceil(self.num_banks).max(1)
    }

    /// Stored slots per row (`num_banks · bank_nnz`).
    pub fn row_stride(&self) -> usize {
        self.num_banks * self.bank_nnz
    }

    /// Total stored slots, padding included — what the format actually
    /// streams, and hence what [`crate::Footprint`] prices.
    pub fn stored_len(&self) -> usize {
        self.values.len()
    }

    /// Column index of every slot, row-major.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value of every slot, row-major (padding slots are `0.0`).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The slot values as raw f16 bit patterns.
    pub fn values_f16(&self) -> &[u16] {
        &self.values_f16
    }

    /// The slot values as int8 codes under [`BbsMatrix::int8_scales`].
    pub fn values_i8(&self) -> &[i8] {
        &self.values_i8
    }

    /// Symmetric int8 scale per row.
    pub fn int8_scales(&self) -> &[f32] {
        &self.scales_i8
    }

    /// The float row kernel over the row range `rows` for `b` lanes: one
    /// lane-major indexed dot over the row's uniform slot slab of `values`
    /// (the f32 plane or the decoded f16 sidecar). Output row `r` lands at
    /// `ys[(r - y_base) · b ..]`; every row in the range is written.
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
        let stride = self.row_stride();
        let outs = ys[(rows.start - y_base) * b..].chunks_exact_mut(b);
        scratch::with_kernel(|scratch| {
            for (r, out) in rows.zip(outs) {
                let (start, end) = (r * stride, (r + 1) * stride);
                let vals = values.run(start..end, &mut scratch.conv);
                let idx = &self.col_idx[start..end];
                rtm_tensor::simd::indexed_dot_batch_variant(v, vals, idx, xs, b, out);
            }
        });
    }

    /// The int8 row kernel over the row range `rows` on pre-quantized
    /// lane-major activations `xq` with per-lane scales `sxs`: the row's
    /// codes are gathered once, lane-major, and a BBS row — one uniform
    /// slab under a single scale — is one segment of the fused tile,
    /// `sxs[j] · (acc_j · scale)` with exact i32 accumulation.
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
        let stride = self.row_stride();
        let outs = ys[(rows.start - y_base) * b..].chunks_exact_mut(b);
        scratch::with_kernel(|scratch| {
            let gi8 = &mut scratch.gi8;
            for (r, out) in rows.zip(outs) {
                let (start, end) = (r * stride, (r + 1) * stride);
                scratch::gather_i8(gi8, &self.col_idx[start..end], xq, b);
                rtm_tensor::simd_i8::row_block_dots_batch_i8(
                    v,
                    &self.values_i8[start..end],
                    gi8,
                    b,
                    &[stride as u32],
                    &[self.scales_i8[r]],
                    sxs,
                    out,
                );
            }
        });
    }

    /// Expands back to a dense matrix. Padded slots (value `0.0`) are
    /// skipped, so a padding column that collides with a stored entry
    /// cannot clobber it.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let stride = self.row_stride();
        for r in 0..self.rows {
            for i in r * stride..(r + 1) * stride {
                let v = self.values[i];
                if v != 0.0 {
                    m[(r, self.col_idx[i] as usize)] = v;
                }
            }
        }
        m
    }
}

/// Partition units are rows; every row stores the same slot count, so the
/// cost balance degenerates to an even row split.
impl SparseKernel for BbsMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn trace_keys(&self) -> &'static rtm_trace::key::KernelKeys {
        &rtm_trace::key::KERNEL_BBS
    }

    fn stored_len(&self) -> usize {
        self.values.len()
    }

    fn units(&self) -> usize {
        self.rows
    }

    fn unit_cost(&self, _u: usize) -> usize {
        self.row_stride().max(1)
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
    use crate::Precision;
    use rtm_tensor::gemm;

    fn example() -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0, 0.0, 5.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 4.0, 6.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_roundtrip_and_balance() {
        let d = example();
        let m = BbsMatrix::from_dense(&d, 2).unwrap();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 6);
        assert_eq!(m.num_banks(), 2);
        assert_eq!(m.bank_width(), 3);
        // Row 2 has 2 nonzeros in each bank → bank_nnz = 2, every row
        // stores exactly 2 banks × 2 slots.
        assert_eq!(m.bank_nnz(), 2);
        assert_eq!(m.row_stride(), 4);
        assert_eq!(m.stored_len(), 12);
        assert_eq!(m.to_dense(), d);
    }

    #[test]
    fn bank_partition_validation() {
        let d = example();
        assert!(BbsMatrix::from_dense(&d, 0).is_err());
        assert!(BbsMatrix::from_dense(&d, 7).is_err());
        assert!(BbsMatrix::from_dense(&d, 6).is_ok());
        // A 0-column matrix accepts one (empty) bank.
        assert!(BbsMatrix::from_dense(&Matrix::zeros(2, 0), 1).is_ok());
    }

    #[test]
    fn spmv_matches_dense() {
        let d = example();
        let m = BbsMatrix::from_dense(&d, 3).unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let want = gemm::gemv(&d, &x).unwrap();
        let got = m.spmv(&x).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-5, "{w} vs {g}");
        }
        assert!(m.spmv(&[1.0]).is_err());
    }

    #[test]
    fn from_parts_validation() {
        // Good: 2 rows × 1 bank × 1 slot.
        assert!(BbsMatrix::from_parts(2, 2, 1, 1, vec![0, 1], vec![1.0, 2.0]).is_ok());
        // Wrong slot count.
        assert!(BbsMatrix::from_parts(2, 2, 1, 1, vec![0], vec![1.0]).is_err());
        // Mismatched idx/value lengths.
        assert!(BbsMatrix::from_parts(2, 2, 1, 1, vec![0, 1], vec![1.0]).is_err());
        // Column out of range.
        assert!(BbsMatrix::from_parts(2, 2, 1, 1, vec![0, 5], vec![1.0, 2.0]).is_err());
        // Zero banks.
        assert!(BbsMatrix::from_parts(2, 2, 0, 1, vec![], vec![]).is_err());
    }

    #[test]
    fn int8_sidecar_install() {
        let m = BbsMatrix::from_dense(&example(), 2).unwrap();
        let codes = m.values_i8().to_vec();
        let scales = m.int8_scales().to_vec();
        let m2 = m.clone().with_int8_sidecar(codes, scales).unwrap();
        assert_eq!(m2, m);
        assert!(m
            .clone()
            .with_int8_sidecar(vec![0; 1], vec![1.0; 3])
            .is_err());
        assert!(m.with_int8_sidecar(vec![0; 12], vec![1.0]).is_err());
    }

    #[test]
    fn spmm_lanes_match_spmv_columns() {
        let m = BbsMatrix::from_dense(&example(), 2).unwrap();
        for b in [1usize, 2, 4, 7, 8, 9] {
            let xs: Vec<f32> = (0..6 * b).map(|i| (i as f32 * 0.31).cos()).collect();
            let mut ys = vec![f32::NAN; 3 * b];
            m.spmm_prec_into(Precision::F32, &xs, b, &mut ys).unwrap();
            assert_eq!(m.spmm(&xs, b).unwrap(), ys);
            for j in 0..b {
                let col: Vec<f32> = (0..6).map(|c| xs[c * b + j]).collect();
                let want = m.spmv(&col).unwrap();
                for r in 0..3 {
                    assert_eq!(ys[r * b + j], want[r], "b={b} lane {j} row {r}");
                }
            }
        }
        assert!(m
            .spmm_prec_into(Precision::F32, &[0.0; 3], 2, &mut [0.0; 6])
            .is_err());
        assert!(m
            .spmm_prec_into(Precision::F32, &[0.0; 12], 2, &mut [0.0; 5])
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
        let m = BbsMatrix::from_dense(&d, 4).unwrap();
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
        let m = BbsMatrix::from_dense(&d, 3).unwrap();
        assert_eq!(m.int8_scales().len(), 19);
        let x: Vec<f32> = (0..13).map(|i| (i as f32 * 0.61).sin()).collect();
        let want = gemm::gemv(&d, &x).unwrap();
        let mut got = vec![0.0f32; 19];
        m.spmv_prec_into(Precision::Int8, &x, &mut got).unwrap();
        let wmax = d.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let xmax = x.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let smax = m.int8_scales().iter().fold(0.0f32, |a, v| a.max(*v));
        let sx = xmax / 127.0;
        let bound = 13.0 * (0.5 * smax * xmax + 0.5 * sx * wmax + 0.25 * smax * sx) + 1e-4;
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() <= bound, "{w} vs {g} (bound {bound})");
        }
        // Batched int8 lanes are exactly the serial int8 columns.
        for b in [1usize, 3, 6, 8, 11] {
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

    /// Randomized dense↔BBS round-trip across bank counts.
    #[test]
    fn prop_roundtrip() {
        for seed in 0u64..300 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..12);
            let cols = rng.gen_range(1usize..12);
            let banks = rng.gen_range(1usize..5).min(cols);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let m = BbsMatrix::from_dense(&dense, banks).unwrap();
            assert_eq!(m.to_dense(), dense, "seed {seed}");
            assert_eq!(m.stored_len(), rows * banks * m.bank_nnz(), "seed {seed}");
        }
    }

    /// Randomized SpMV-vs-GEMV agreement.
    #[test]
    fn prop_spmv_equals_gemv() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..10);
            let cols = rng.gen_range(1usize..10);
            let banks = rng.gen_range(1usize..4).min(cols);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.3 {
                    0.0
                } else {
                    v
                }
            });
            let x: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
            let want = gemm::gemv(&dense, &x).unwrap();
            let got = BbsMatrix::from_dense(&dense, banks)
                .unwrap()
                .spmv(&x)
                .unwrap();
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-4, "seed {seed}");
            }
        }
    }
}
