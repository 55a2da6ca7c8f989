//! Compressed Structured Block storage (the CSB-RNN family of formats —
//! see PAPERS.md — which RTMobile's scheme-vs-scheme comparison targets).
//!
//! The matrix is tiled into `block_h × block_w` blocks. A block that
//! contains any nonzero is *stored*: it records the union of its nonzero
//! columns once (`cols_idx`, shared by all rows of the block) and a dense
//! `rows_in_block × kept_cols` value panel. Blocks with no nonzeros cost
//! nothing. Compared with BSPC — whose column unions span a full stripe of
//! rows — CSB's unions span only `block_h` rows, so a matrix whose nonzero
//! columns vary quickly down the rows (e.g. pattern-pruned weights) stores
//! far fewer explicit zeros; the price is per-block index metadata and a
//! shorter unit-stride inner loop. The tuner weighs exactly that trade.

use crate::kernel::{Activations, SparseKernel};
use crate::scratch::{self, FloatValues};
use rtm_tensor::{Matrix, ShapeError};
use std::ops::Range;

/// A sparse matrix in compressed-structured-block format.
///
/// Invariants (maintained by construction, checked by `from_parts`):
/// `block_ptr` has `num_block_rows + 1` non-decreasing entries ending at
/// `block_col.len()`; within a block row the stored `block_col`s ascend
/// strictly; `col_ptr`/`val_ptr` are non-decreasing prefix arrays over
/// `cols_idx`/`values`; each stored block's `cols_idx` run ascends
/// strictly inside the block's column span and its value panel holds
/// exactly `rows_in_block × kept_cols` entries.
#[derive(Debug, Clone, PartialEq)]
pub struct CsbMatrix {
    rows: usize,
    cols: usize,
    block_h: usize,
    block_w: usize,
    /// Stored-block extent per block row (`num_block_rows + 1` entries).
    block_ptr: Vec<u32>,
    /// Block-column coordinate of every stored block.
    block_col: Vec<u32>,
    /// Prefix offsets into `cols_idx` (`stored_blocks + 1` entries).
    col_ptr: Vec<u32>,
    /// Absolute kept columns of every stored block, ascending per block.
    cols_idx: Vec<u32>,
    /// Prefix offsets into `values` (`stored_blocks + 1` entries).
    val_ptr: Vec<u32>,
    /// Per-block dense panels, row-major within each block.
    values: Vec<f32>,
    /// `values` as raw f16 bit patterns.
    values_f16: Vec<u16>,
    /// Symmetric int8 scale per stored block.
    scales_i8: Vec<f32>,
    /// `values` as int8 codes under the per-block scales.
    values_i8: Vec<i8>,
}

impl CsbMatrix {
    /// Builds a CSB matrix from a dense one. A `block_h × block_w` block
    /// is stored iff it contains a nonzero; its kept columns are the union
    /// of nonzero columns over the block's rows.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `block_h` or `block_w` is zero.
    pub fn from_dense(
        dense: &Matrix,
        block_h: usize,
        block_w: usize,
    ) -> Result<CsbMatrix, ShapeError> {
        let (rows, cols) = dense.shape();
        if block_h == 0 || block_w == 0 {
            return Err(ShapeError {
                op: "csb_from_dense",
                lhs: (rows, cols),
                rhs: (block_h, block_w),
            });
        }
        let nbr = rows.div_ceil(block_h);
        let nbc = cols.div_ceil(block_w);
        let mut block_ptr = Vec::with_capacity(nbr + 1);
        let mut block_col = Vec::new();
        let mut col_ptr = vec![0u32];
        let mut cols_idx = Vec::new();
        let mut val_ptr = vec![0u32];
        let mut values = Vec::new();
        block_ptr.push(0u32);
        for br in 0..nbr {
            let r0 = br * block_h;
            let bh_eff = block_h.min(rows - r0);
            for bc in 0..nbc {
                let c0 = bc * block_w;
                let c1 = ((bc + 1) * block_w).min(cols);
                // Union of nonzero columns over the block's rows.
                let mut kept: Vec<u32> = Vec::new();
                for c in c0..c1 {
                    if (0..bh_eff).any(|lr| dense[(r0 + lr, c)] != 0.0) {
                        kept.push(c as u32);
                    }
                }
                if kept.is_empty() {
                    continue;
                }
                for lr in 0..bh_eff {
                    for &c in &kept {
                        values.push(dense[(r0 + lr, c as usize)]);
                    }
                }
                cols_idx.extend_from_slice(&kept);
                block_col.push(bc as u32);
                col_ptr.push(cols_idx.len() as u32);
                val_ptr.push(values.len() as u32);
            }
            block_ptr.push(block_col.len() as u32);
        }
        let mut m = CsbMatrix {
            rows,
            cols,
            block_h,
            block_w,
            block_ptr,
            block_col,
            col_ptr,
            cols_idx,
            val_ptr,
            values,
            values_f16: Vec::new(),
            scales_i8: Vec::new(),
            values_i8: Vec::new(),
        };
        m.build_sidecars();
        Ok(m)
    }

    /// Rebuilds the f16 and int8 sidecars from `values`; int8 carries one
    /// symmetric scale per stored block.
    fn build_sidecars(&mut self) {
        self.values_f16 = rtm_tensor::f16::f32_to_f16_bits(&self.values);
        let nblocks = self.block_col.len();
        self.scales_i8 = (0..nblocks)
            .map(|blk| {
                let (vs, ve) = (self.val_ptr[blk] as usize, self.val_ptr[blk + 1] as usize);
                let m = self.values[vs..ve]
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
        for blk in 0..nblocks {
            let (vs, ve) = (self.val_ptr[blk] as usize, self.val_ptr[blk + 1] as usize);
            let scale = self.scales_i8[blk];
            for i in vs..ve {
                self.values_i8[i] = (self.values[i] / scale).round().clamp(-127.0, 127.0) as i8;
            }
        }
    }

    /// Builds from raw parts (the deserialization path).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the arrays are structurally inconsistent:
    /// zero block sizes, wrong pointer-array lengths, decreasing prefix
    /// arrays, out-of-span or non-ascending block/kept columns, or a value
    /// panel whose length is not `rows_in_block × kept_cols`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        rows: usize,
        cols: usize,
        block_h: usize,
        block_w: usize,
        block_ptr: Vec<u32>,
        block_col: Vec<u32>,
        col_ptr: Vec<u32>,
        cols_idx: Vec<u32>,
        val_ptr: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<CsbMatrix, ShapeError> {
        let bad = || ShapeError {
            op: "csb_from_parts",
            lhs: (rows, cols),
            rhs: (block_h, block_w),
        };
        if block_h == 0 || block_w == 0 {
            return Err(bad());
        }
        let nbr = rows.div_ceil(block_h);
        let nbc = cols.div_ceil(block_w);
        let nblocks = block_col.len();
        if block_ptr.len() != nbr + 1
            || block_ptr.first().copied().unwrap_or(1) != 0
            || block_ptr.last().copied().unwrap_or(1) as usize != nblocks
            || block_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad());
        }
        if col_ptr.len() != nblocks + 1
            || col_ptr[0] != 0
            || col_ptr[nblocks] as usize != cols_idx.len()
            || col_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad());
        }
        if val_ptr.len() != nblocks + 1
            || val_ptr[0] != 0
            || val_ptr[nblocks] as usize != values.len()
            || val_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad());
        }
        for br in 0..nbr {
            let bh_eff = block_h.min(rows - br * block_h);
            let (bs, be) = (block_ptr[br] as usize, block_ptr[br + 1] as usize);
            for blk in bs..be {
                let bc = block_col[blk] as usize;
                if bc >= nbc || (blk > bs && block_col[blk - 1] >= block_col[blk]) {
                    return Err(bad());
                }
                let (cs, ce) = (col_ptr[blk] as usize, col_ptr[blk + 1] as usize);
                let kc = ce - cs;
                let span = (bc * block_w, ((bc + 1) * block_w).min(cols));
                for i in cs..ce {
                    let c = cols_idx[i] as usize;
                    if c < span.0 || c >= span.1 || (i > cs && cols_idx[i - 1] >= cols_idx[i]) {
                        return Err(bad());
                    }
                }
                if (val_ptr[blk + 1] - val_ptr[blk]) as usize != bh_eff * kc {
                    return Err(bad());
                }
            }
        }
        let mut m = CsbMatrix {
            rows,
            cols,
            block_h,
            block_w,
            block_ptr,
            block_col,
            col_ptr,
            cols_idx,
            val_ptr,
            values,
            values_f16: Vec::new(),
            scales_i8: Vec::new(),
            values_i8: Vec::new(),
        };
        m.build_sidecars();
        Ok(m)
    }

    /// Replaces the int8 sidecar with externally supplied codes and
    /// per-block scales (decoder path — stored codes round-trip
    /// bit-exactly).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `codes` does not have one entry per
    /// stored value or `scales` one entry per stored block.
    pub fn with_int8_sidecar(
        mut self,
        codes: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<CsbMatrix, ShapeError> {
        if codes.len() != self.values.len() || scales.len() != self.block_col.len() {
            return Err(ShapeError {
                op: "csb_int8_sidecar",
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

    /// Block height (rows per block; the last block row may be shorter).
    pub fn block_h(&self) -> usize {
        self.block_h
    }

    /// Block width (columns per block; the last block column may be
    /// narrower).
    pub fn block_w(&self) -> usize {
        self.block_w
    }

    /// Number of block rows.
    pub fn num_block_rows(&self) -> usize {
        self.rows.div_ceil(self.block_h)
    }

    /// Number of block columns.
    pub fn num_block_cols(&self) -> usize {
        self.cols.div_ceil(self.block_w)
    }

    /// Number of stored (non-empty) blocks.
    pub fn stored_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// Total stored values (explicit zeros inside kept columns included).
    pub fn stored_len(&self) -> usize {
        self.values.len()
    }

    /// Stored-block extent per block row (`num_block_rows + 1` entries).
    pub fn block_ptr(&self) -> &[u32] {
        &self.block_ptr
    }

    /// Block-column coordinate of every stored block.
    pub fn block_col(&self) -> &[u32] {
        &self.block_col
    }

    /// Prefix offsets into [`CsbMatrix::cols_idx`].
    pub fn col_ptr(&self) -> &[u32] {
        &self.col_ptr
    }

    /// Absolute kept columns of every stored block.
    pub fn cols_idx(&self) -> &[u32] {
        &self.cols_idx
    }

    /// Prefix offsets into [`CsbMatrix::values`].
    pub fn val_ptr(&self) -> &[u32] {
        &self.val_ptr
    }

    /// Stored values, block panel by block panel.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// The stored values as raw f16 bit patterns.
    pub fn values_f16(&self) -> &[u16] {
        &self.values_f16
    }

    /// The stored values as int8 codes under [`CsbMatrix::int8_scales`].
    pub fn values_i8(&self) -> &[i8] {
        &self.values_i8
    }

    /// Symmetric int8 scale per stored block.
    pub fn int8_scales(&self) -> &[f32] {
        &self.scales_i8
    }

    /// Stored values in block row `br` — the executor's cost measure for
    /// partitioning.
    ///
    /// # Panics
    ///
    /// Panics if `br >= self.num_block_rows()`.
    pub fn block_row_cost(&self, br: usize) -> usize {
        let (bs, be) = (self.block_ptr[br] as usize, self.block_ptr[br + 1] as usize);
        (self.val_ptr[be] - self.val_ptr[bs]) as usize
    }

    /// The float row kernel over the block-row range `brs` for `b` lanes.
    /// Output row `r` accumulates at `ys[(r - y_base) · b ..]` — the driver
    /// provides a **zeroed** slice; rows accumulate block by block in
    /// storage order, so serial, pooled and batched realizations add in the
    /// same sequence. Per block the activation lanes are gathered once,
    /// lane-major, and every row of the block does one unit-stride
    /// lane-major dot over the block's `values` (the f32 plane or the
    /// decoded f16 sidecar).
    fn float_rows_into(
        &self,
        values: impl FloatValues,
        xs: &[f32],
        b: usize,
        brs: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = rtm_tensor::simd::active_variant();
        scratch::with_kernel(|scratch| {
            let tmp = &mut scratch.lanes;
            tmp.resize(b, 0.0);
            for br in brs {
                let r0 = br * self.block_h;
                let bh_eff = self.block_h.min(self.rows - r0);
                let (bs, be) = (self.block_ptr[br] as usize, self.block_ptr[br + 1] as usize);
                for blk in bs..be {
                    let (cs, ce) = (self.col_ptr[blk] as usize, self.col_ptr[blk + 1] as usize);
                    let kc = ce - cs;
                    let gf32 =
                        scratch::gather_f32(&mut scratch.gf32, &self.cols_idx[cs..ce], xs, b);
                    let (vb, ve) = (self.val_ptr[blk] as usize, self.val_ptr[blk + 1] as usize);
                    let block = values.run(vb..ve, &mut scratch.conv);
                    let outs = ys[(r0 - y_base) * b..].chunks_exact_mut(b);
                    for (lr, out) in (0..bh_eff).zip(outs) {
                        let vals = &block[lr * kc..(lr + 1) * kc];
                        rtm_tensor::simd::dot_batch_variant(v, vals, gf32, b, tmp);
                        for (yj, tj) in out.iter_mut().zip(tmp.iter()) {
                            *yj += tj;
                        }
                    }
                }
            }
        });
    }

    /// The int8 row kernel over the block-row range `brs` on pre-quantized
    /// lane-major activations `xq` with per-lane scales `sxs`: one scale
    /// per stored block, so every row of a block is a single segment of the
    /// fused tile — `sxs[j] · (acc_j · scale)` with exact i32 accumulation —
    /// accumulated over a zeroed slice in the float kernel's block order.
    fn int8_rows_into(
        &self,
        xq: &[i8],
        sxs: &[f32],
        b: usize,
        brs: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    ) {
        let v = rtm_tensor::simd::active_variant();
        scratch::with_kernel(|scratch| {
            let (gi8, tmp) = (&mut scratch.gi8, &mut scratch.lanes);
            tmp.resize(b, 0.0);
            for br in brs {
                let r0 = br * self.block_h;
                let bh_eff = self.block_h.min(self.rows - r0);
                let (bs, be) = (self.block_ptr[br] as usize, self.block_ptr[br + 1] as usize);
                for blk in bs..be {
                    let (cs, ce) = (self.col_ptr[blk] as usize, self.col_ptr[blk + 1] as usize);
                    let kc = ce - cs;
                    scratch::gather_i8(gi8, &self.cols_idx[cs..ce], xq, b);
                    let vb = self.val_ptr[blk] as usize;
                    let seg = [kc as u32];
                    let scales = [self.scales_i8[blk]];
                    let outs = ys[(r0 - y_base) * b..].chunks_exact_mut(b);
                    for (lr, out) in (0..bh_eff).zip(outs) {
                        let vals = &self.values_i8[vb + lr * kc..vb + (lr + 1) * kc];
                        rtm_tensor::simd_i8::row_block_dots_batch_i8(
                            v, vals, gi8, b, &seg, &scales, sxs, tmp,
                        );
                        for (yj, tj) in out.iter_mut().zip(tmp.iter()) {
                            *yj += tj;
                        }
                    }
                }
            }
        });
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for br in 0..self.num_block_rows() {
            let r0 = br * self.block_h;
            let bh_eff = self.block_h.min(self.rows - r0);
            let (bs, be) = (self.block_ptr[br] as usize, self.block_ptr[br + 1] as usize);
            for blk in bs..be {
                let (cs, ce) = (self.col_ptr[blk] as usize, self.col_ptr[blk + 1] as usize);
                let kc = ce - cs;
                let vb = self.val_ptr[blk] as usize;
                for lr in 0..bh_eff {
                    for (i, &c) in self.cols_idx[cs..ce].iter().enumerate() {
                        m[(r0 + lr, c as usize)] = self.values[vb + lr * kc + i];
                    }
                }
            }
        }
        m
    }
}

/// Partition units are block rows, costed by their stored values; block
/// rows tile the output contiguously.
impl SparseKernel for CsbMatrix {
    fn rows(&self) -> usize {
        self.rows
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn trace_keys(&self) -> &'static rtm_trace::key::KernelKeys {
        &rtm_trace::key::KERNEL_CSB
    }

    fn stored_len(&self) -> usize {
        self.values.len()
    }

    fn units(&self) -> usize {
        self.num_block_rows()
    }

    fn unit_cost(&self, u: usize) -> usize {
        self.block_row_cost(u)
    }

    fn unit_first_row(&self, u: usize) -> usize {
        u * self.block_h
    }

    fn needs_zero_fill(&self) -> bool {
        true
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
            &[0.5, 0.0, 0.0, 0.0, 0.0, -1.0],
            &[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_roundtrip_and_structure() {
        let d = example();
        let m = CsbMatrix::from_dense(&d, 2, 3).unwrap();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 6);
        assert_eq!(m.num_block_rows(), 3);
        assert_eq!(m.num_block_cols(), 2);
        assert_eq!(m.to_dense(), d);
        // Empty blocks cost nothing: block row 2 (rows 4..5) is all zero.
        assert_eq!(m.block_row_cost(2), 0);
        assert!(m.block_row_cost(0) > 0);
    }

    #[test]
    fn block_size_validation() {
        let d = example();
        assert!(CsbMatrix::from_dense(&d, 0, 2).is_err());
        assert!(CsbMatrix::from_dense(&d, 2, 0).is_err());
        // Oversized blocks are fine — one block covers everything.
        assert!(CsbMatrix::from_dense(&d, 100, 100).is_ok());
        assert_eq!(CsbMatrix::from_dense(&d, 100, 100).unwrap().to_dense(), d);
    }

    #[test]
    fn spmv_matches_dense() {
        let d = example();
        let m = CsbMatrix::from_dense(&d, 2, 2).unwrap();
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
        let m = CsbMatrix::from_dense(&example(), 2, 3).unwrap();
        // Reassembling from its own parts round-trips.
        let re = CsbMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.block_h(),
            m.block_w(),
            m.block_ptr().to_vec(),
            m.block_col().to_vec(),
            m.col_ptr().to_vec(),
            m.cols_idx().to_vec(),
            m.val_ptr().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        assert_eq!(re, m);
        // Zero block sizes.
        assert!(CsbMatrix::from_parts(
            2,
            2,
            0,
            1,
            vec![0, 0],
            vec![],
            vec![0],
            vec![],
            vec![0],
            vec![]
        )
        .is_err());
        // Wrong block_ptr length.
        assert!(CsbMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.block_h(),
            m.block_w(),
            vec![0],
            m.block_col().to_vec(),
            m.col_ptr().to_vec(),
            m.cols_idx().to_vec(),
            m.val_ptr().to_vec(),
            m.values().to_vec(),
        )
        .is_err());
        // Out-of-span kept column.
        let mut bad_cols = m.cols_idx().to_vec();
        bad_cols[0] = 5;
        assert!(CsbMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.block_h(),
            m.block_w(),
            m.block_ptr().to_vec(),
            m.block_col().to_vec(),
            m.col_ptr().to_vec(),
            bad_cols,
            m.val_ptr().to_vec(),
            m.values().to_vec(),
        )
        .is_err());
        // Panel length mismatch.
        let mut bad_vals = m.values().to_vec();
        bad_vals.pop();
        assert!(CsbMatrix::from_parts(
            m.rows(),
            m.cols(),
            m.block_h(),
            m.block_w(),
            m.block_ptr().to_vec(),
            m.block_col().to_vec(),
            m.col_ptr().to_vec(),
            m.cols_idx().to_vec(),
            m.val_ptr().to_vec(),
            bad_vals,
        )
        .is_err());
    }

    #[test]
    fn int8_sidecar_install() {
        let m = CsbMatrix::from_dense(&example(), 2, 2).unwrap();
        let codes = m.values_i8().to_vec();
        let scales = m.int8_scales().to_vec();
        let m2 = m.clone().with_int8_sidecar(codes, scales).unwrap();
        assert_eq!(m2, m);
        assert!(m.clone().with_int8_sidecar(vec![0; 1], vec![1.0]).is_err());
    }

    #[test]
    fn spmm_lanes_match_spmv_columns() {
        let m = CsbMatrix::from_dense(&example(), 2, 3).unwrap();
        for b in [1usize, 2, 4, 7, 8, 9] {
            let xs: Vec<f32> = (0..6 * b).map(|i| (i as f32 * 0.31).cos()).collect();
            let mut ys = vec![f32::NAN; 5 * b];
            m.spmm_prec_into(Precision::F32, &xs, b, &mut ys).unwrap();
            assert_eq!(m.spmm(&xs, b).unwrap(), ys);
            for j in 0..b {
                let col: Vec<f32> = (0..6).map(|c| xs[c * b + j]).collect();
                let want = m.spmv(&col).unwrap();
                for r in 0..5 {
                    assert_eq!(ys[r * b + j], want[r], "b={b} lane {j} row {r}");
                }
            }
        }
        assert!(m
            .spmm_prec_into(Precision::F32, &[0.0; 3], 2, &mut [0.0; 10])
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
        let m = CsbMatrix::from_dense(&d, 4, 4).unwrap();
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
        let m = CsbMatrix::from_dense(&d, 4, 4).unwrap();
        assert_eq!(m.int8_scales().len(), m.stored_blocks());
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

    /// Randomized dense↔CSB round-trip across block shapes.
    #[test]
    fn prop_roundtrip() {
        for seed in 0u64..300 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..12);
            let cols = rng.gen_range(1usize..12);
            let bh = rng.gen_range(1usize..6);
            let bw = rng.gen_range(1usize..6);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let m = CsbMatrix::from_dense(&dense, bh, bw).unwrap();
            assert_eq!(m.to_dense(), dense, "seed {seed}");
        }
    }

    /// Randomized SpMV-vs-GEMV agreement.
    #[test]
    fn prop_spmv_equals_gemv() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..10);
            let cols = rng.gen_range(1usize..10);
            let bh = rng.gen_range(1usize..5);
            let bw = rng.gen_range(1usize..5);
            let dense = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.3 {
                    0.0
                } else {
                    v
                }
            });
            let x: Vec<f32> = (0..cols).map(|i| (i as f32).sin()).collect();
            let want = gemm::gemv(&dense, &x).unwrap();
            let got = CsbMatrix::from_dense(&dense, bh, bw)
                .unwrap()
                .spmv(&x)
                .unwrap();
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() < 1e-4, "seed {seed}");
            }
        }
    }
}
