//! Dense matrix-multiply kernels.
//!
//! Three kernels are provided:
//!
//! * [`matmul`] — naive triple loop in `ikj` order (row-major friendly);
//! * [`matmul_blocked`] — cache-blocked variant used by the dense CPU
//!   baseline in the benchmarks;
//! * [`gemv`] / [`gemv_transposed`] — matrix-vector products, the inner
//!   operation of every RNN time step.
//!
//! [`RowTiles`] stores a dense matrix so that, at one input stream, its
//! rows are the lanes of the register tile — the layout the deployed
//! classifier head runs in at one stream.
//!
//! The simulator crate does not *run* these for its timing model (it models
//! cycles analytically), but the accuracy experiments do, so correctness here
//! is load-bearing for Table I.

use crate::aligned::AlignedF32;
use crate::matrix::{Matrix, ShapeError};
use crate::simd::{Variant, TILE_ROWS};
use std::ops::Range;

/// Default cache-block edge for [`matmul_blocked`]; 64×64 f32 tiles fit
/// comfortably in a typical mobile L1 (16 KiB per tile operand).
pub const DEFAULT_BLOCK: usize = 64;

/// `C = A * B` with the naive `ikj` loop order.
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use rtm_tensor::{Matrix, gemm};
///
/// # fn main() -> Result<(), rtm_tensor::ShapeError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0]])?;
/// let b = Matrix::from_rows(&[&[3.0], &[4.0]])?;
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 11.0);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for (p, &aip) in a_row.iter().enumerate().take(k) {
            if aip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            let c_row = c.row_mut(i);
            for (cij, &bpj) in c_row.iter_mut().zip(b_row).take(n) {
                *cij += aip * bpj;
            }
        }
    }
    Ok(c)
}

/// `C = A * B` with square cache blocking of edge `block`.
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.cols() != b.rows()`.
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix, block: usize) -> Result<Matrix, ShapeError> {
    assert!(block > 0, "block size must be positive");
    if a.cols() != b.rows() {
        return Err(ShapeError {
            op: "matmul_blocked",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for ii in (0..m).step_by(block) {
        let i_end = (ii + block).min(m);
        for pp in (0..k).step_by(block) {
            let p_end = (pp + block).min(k);
            for jj in (0..n).step_by(block) {
                let j_end = (jj + block).min(n);
                for i in ii..i_end {
                    let a_row = a.row(i);
                    for (p, &aip) in a_row.iter().enumerate().take(p_end).skip(pp) {
                        if aip == 0.0 {
                            continue;
                        }
                        let b_row = b.row(p);
                        let c_row = c.row_mut(i);
                        for j in jj..j_end {
                            c_row[j] += aip * b_row[j];
                        }
                    }
                }
            }
        }
    }
    Ok(c)
}

/// `y = A * x` (matrix-vector product).
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.cols() != x.len()`.
pub fn gemv(a: &Matrix, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
    let mut y = vec![0.0f32; a.rows()];
    gemv_into(a, x, &mut y)?;
    Ok(y)
}

/// `y = A * x` into a caller-provided buffer — the allocation-free
/// steady-state form: [`gemv_batch_into`] at one lane.
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.cols() != x.len()` or
/// `y.len() != a.rows()`.
pub fn gemv_into(a: &Matrix, x: &[f32], y: &mut [f32]) -> Result<(), ShapeError> {
    if a.cols() != x.len() || y.len() != a.rows() {
        return Err(ShapeError {
            op: "gemv",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    gemv_batch_into(a, x, 1, y)
}

/// `Y = A * X` for `b` interleaved input lanes — the dense fallback of the
/// batched (SpMM) inference path. `xs` holds element `c` of lane `j` at
/// `xs[c·b + j]` and `ys` receives row `r` of lane `j` at `ys[r·b + j]`,
/// so one walk of each weight row feeds all `b` streams.
///
/// Lane contract: lane `j` of the result is **bit-identical** to
/// [`gemv_into`] of lane `j`'s column under the same ambient policy (see
/// [`simd::dot_batch_variant`](crate::simd::dot_batch_variant)). A single
/// lane counts as `kernel.gemv.dense`, more as `kernel.gemm.dense`.
///
/// # Errors
///
/// Returns [`ShapeError`] when `xs.len() != a.cols() * b` or
/// `ys.len() != a.rows() * b`.
pub fn gemv_batch_into(a: &Matrix, xs: &[f32], b: usize, ys: &mut [f32]) -> Result<(), ShapeError> {
    if xs.len() != a.cols() * b || ys.len() != a.rows() * b {
        return Err(ShapeError {
            op: "gemv_batch",
            lhs: a.shape(),
            rhs: (xs.len(), b),
        });
    }
    if b > 0 {
        let calls = if b == 1 {
            rtm_trace::key::GEMV_DENSE
        } else {
            rtm_trace::key::GEMM_DENSE
        };
        rtm_trace::count_many(&[
            (calls, 1),
            (rtm_trace::key::KERNEL_ROWS, a.rows() as u64),
            (rtm_trace::key::KERNEL_NNZ, (a.rows() * a.cols()) as u64),
        ]);
        dense_rows_into(a, xs, b, 0..a.rows(), ys, 0);
    }
    Ok(())
}

/// The one dense row loop — serial here, per pool chunk in `rtm-exec`:
/// `ys[(r - y_base)·b + j] = A[r] · X[:, j]` for the rows `rows` over
/// `b ≥ 1` interleaved lanes, uncounted. One
/// [`simd::row_major_dots_variant`](crate::simd::row_major_dots_variant)
/// call, so every row runs the same realization, a single lane the
/// along-row dot, and rows that share `xs` share its loads.
///
/// # Panics
///
/// Panics if `b == 0`, `xs.len() != a.cols() * b`, or `ys` does not hold
/// the rows `rows` from `y_base` on.
pub fn dense_rows_into(
    a: &Matrix,
    xs: &[f32],
    b: usize,
    rows: Range<usize>,
    ys: &mut [f32],
    y_base: usize,
) {
    let v = crate::simd::active_variant();
    let weights = &a.as_slice()[rows.start * a.cols()..rows.end * a.cols()];
    let out = &mut ys[(rows.start - y_base) * b..(rows.end - y_base) * b];
    crate::simd::row_major_dots_variant(v, weights, rows.len(), xs, b, out);
}

/// A dense matrix stored as lane-major row tiles — up to [`TILE_ROWS`] = 16
/// adjacent rows each, element `k` of the tile's row `j` at `[k·m + j]` —
/// so that at one input stream its rows are the lanes of the register tile
/// ([`simd::tile_dots_variant`](crate::simd::tile_dots_variant)) instead of
/// one along-row dot and horizontal sum each. A 39-row matrix is three
/// tiles: 16 + 16 + 7 rows. The plane starts on a cache line, so a full
/// tile's 16-lane rows are whole lines.
#[derive(Debug, Clone)]
pub struct RowTiles {
    rows: usize,
    cols: usize,
    values: AlignedF32,
}

impl RowTiles {
    /// `a`'s rows cut into row tiles.
    pub fn new(a: &Matrix) -> RowTiles {
        let (rows, cols) = (a.rows(), a.cols());
        let tiled: Vec<f32> = (0..rows)
            .step_by(TILE_ROWS)
            .flat_map(|r0| {
                let m = TILE_ROWS.min(rows - r0);
                (0..cols).flat_map(move |k| (r0..r0 + m).map(move |r| a[(r, k)]))
            })
            .collect();
        RowTiles {
            rows,
            cols,
            values: AlignedF32::from_slice(&tiled),
        }
    }

    /// `y = A · x` at one stream, one tile primitive call per row tile:
    /// `y[r]` is **bit-identical** to [`gemv_into`]`(A, x, ..)` under the
    /// variant `v` (by the tile primitive's lane contract, row `r` is `dot`
    /// of row `r` with `x`), and the call counts what [`gemv_into`] counts.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != cols` or `y.len() != rows`.
    ///
    /// # Panics
    ///
    /// Panics unless [`simd::tile_dots_available`](crate::simd::tile_dots_available)`(v)`.
    pub fn gemv_into(&self, v: Variant, x: &[f32], y: &mut [f32]) -> Result<(), ShapeError> {
        let (rows, cols) = (self.rows, self.cols);
        if x.len() != cols || y.len() != rows {
            return Err(ShapeError {
                op: "row_tiles_gemv",
                lhs: (rows, cols),
                rhs: (x.len(), 1),
            });
        }
        rtm_trace::count_many(&[
            (rtm_trace::key::GEMV_DENSE, 1),
            (rtm_trace::key::KERNEL_ROWS, rows as u64),
            (rtm_trace::key::KERNEL_NNZ, (rows * cols) as u64),
        ]);
        let values = self.values.as_slice();
        for (t, out) in y.chunks_mut(TILE_ROWS).enumerate() {
            let m = out.len();
            let tile = &values[t * TILE_ROWS * cols..(t * TILE_ROWS + m) * cols];
            crate::simd::tile_dots_variant(v, tile, m, x, 1, out);
        }
        Ok(())
    }
}

/// `y = Aᵀ * x` without materializing the transpose: one
/// [`simd`](crate::simd) axpy per nonzero element of `x` (the zero-skip
/// matters after row pruning).
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.rows() != x.len()`.
pub fn gemv_transposed(a: &Matrix, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
    if a.rows() != x.len() {
        return Err(ShapeError {
            op: "gemv_transposed",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    let mut y = vec![0.0f32; a.cols()];
    let v = crate::simd::active_variant();
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        crate::simd::axpy_variant(v, xi, a.row(i), &mut y);
    }
    Ok(y)
}

/// Rank-1 update `A += alpha * x * yᵀ` (outer product accumulate), the
/// gradient shape of every weight matrix in backpropagation.
///
/// # Errors
///
/// Returns [`ShapeError`] when `a.shape() != (x.len(), y.len())`.
pub fn ger(a: &mut Matrix, alpha: f32, x: &[f32], y: &[f32]) -> Result<(), ShapeError> {
    if a.shape() != (x.len(), y.len()) {
        return Err(ShapeError {
            op: "ger",
            lhs: a.shape(),
            rhs: (x.len(), y.len()),
        });
    }
    for (i, &xi) in x.iter().enumerate() {
        if xi == 0.0 {
            continue;
        }
        let row = a.row_mut(i);
        let s = alpha * xi;
        for (aij, &yj) in row.iter_mut().zip(y) {
            *aij += s * yj;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn seq_matrix(r: usize, c: usize) -> Matrix {
        Matrix::from_fn(r, c, |i, j| (i * c + j) as f32 + 1.0)
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_identity() {
        let a = seq_matrix(4, 4);
        assert_eq!(matmul(&a, &Matrix::identity(4)).unwrap(), a);
        assert_eq!(matmul(&Matrix::identity(4), &a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn blocked_matches_naive() {
        let a = seq_matrix(17, 23);
        let b = seq_matrix(23, 11);
        let naive = matmul(&a, &b).unwrap();
        for block in [1, 3, 8, 64, 100] {
            let blocked = matmul_blocked(&a, &b, block).unwrap();
            for (x, y) in naive.as_slice().iter().zip(blocked.as_slice()) {
                assert!(approx_eq(*x, *y, 1e-2), "block={block}: {x} vs {y}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn blocked_zero_block_panics() {
        let _ = matmul_blocked(&Matrix::zeros(1, 1), &Matrix::zeros(1, 1), 0);
    }

    #[test]
    fn gemv_matches_matmul() {
        let a = seq_matrix(5, 7);
        let x: Vec<f32> = (0..7).map(|i| i as f32 * 0.5).collect();
        let xm = Matrix::from_vec(7, 1, x.clone()).unwrap();
        let want = matmul(&a, &xm).unwrap();
        let got = gemv(&a, &x).unwrap();
        for i in 0..5 {
            assert!(approx_eq(got[i], want[(i, 0)], 1e-4));
        }
    }

    #[test]
    fn gemv_shape_error() {
        assert!(gemv(&Matrix::zeros(2, 3), &[1.0, 2.0]).is_err());
    }

    #[test]
    fn gemv_batch_lanes_match_serial_gemv() {
        let a = seq_matrix(9, 13);
        for b in [1usize, 2, 5, 8, 11] {
            let xs: Vec<f32> = (0..13 * b).map(|i| (i as f32 * 0.37).sin()).collect();
            let mut ys = vec![f32::NAN; 9 * b];
            gemv_batch_into(&a, &xs, b, &mut ys).unwrap();
            for j in 0..b {
                let col: Vec<f32> = (0..13).map(|c| xs[c * b + j]).collect();
                let want = gemv(&a, &col).unwrap();
                for i in 0..9 {
                    assert_eq!(ys[i * b + j], want[i], "b={b} lane {j} row {i}");
                }
            }
        }
        assert!(gemv_batch_into(&a, &[0.0; 5], 2, &mut [0.0; 18]).is_err());
    }

    #[test]
    fn gemv_batch_rows_match_per_row_dot_on_every_block_edge() {
        // The grid of `simd::tests::tile_rows_match_per_row_dot_on_every_
        // block_edge` over row-major rows, under the ambient variant. The
        // matrix and `xs` are collected to their exact length: the last rows
        // end the allocation.
        use crate::simd;
        let mut rng = crate::rng::StdRng::seed_from_u64(0x6E33);
        let mut rand =
            |n: usize| -> Vec<f32> { (0..n).map(|_| rng.gen_f32() * 2.0 - 1.0).collect() };
        let v = simd::active_variant();
        for m in (1usize..=9).chain([12, 15, 16]) {
            for len in [0usize, 1, 7, 8, 9, 16, 17, 102] {
                for b in [2usize, 3, 7, 8, 9, 12, 16, 25] {
                    let a = Matrix::from_vec(m, len, rand(m * len)).unwrap();
                    let xs = rand(len * b).into_boxed_slice();
                    let mut ys = vec![f32::NAN; m * b];
                    gemv_batch_into(&a, &xs, b, &mut ys).unwrap();
                    for l in 0..b {
                        let col: Vec<f32> = (0..len).map(|k| xs[k * b + l]).collect();
                        for i in 0..m {
                            let (got, want) = (ys[i * b + l], simd::dot_variant(v, a.row(i), &col));
                            // The scalar definition sums an empty row from
                            // `-0.0`, its batch lanes start at `+0.0`.
                            assert!(
                                got.to_bits() == want.to_bits() || (len == 0 && got == want),
                                "m={m} len={len} b={b} row {i} lane {l}: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }
        // A NaN / ±∞ weight or an all-`-0.0` row stays in its own row (whose
        // zero is signed by the variant: `simd::tile_dots_available`).
        let same = |x: f32, y: f32| {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()) || (x == 0.0 && y == 0.0)
        };
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
            for bad in 0..6 {
                let mut a = Matrix::from_vec(6, 17, rand(6 * 17)).unwrap();
                if poison == 0.0 {
                    a.row_mut(bad).fill(-0.0);
                } else {
                    a[(bad, 9)] = poison;
                }
                for b in [2usize, 8, 11] {
                    let xs: Vec<f32> = rand(17 * b).iter().map(|x| x.abs() + 0.5).collect();
                    let mut ys = vec![7.0f32; 6 * b + 8];
                    gemv_batch_into(&a, &xs, b, &mut ys[..6 * b]).unwrap();
                    for l in 0..b {
                        let col: Vec<f32> = (0..17).map(|k| xs[k * b + l]).collect();
                        for i in 0..6 {
                            let want = simd::dot_variant(v, a.row(i), &col);
                            assert!(
                                same(ys[i * b + l], want),
                                "bad row {bad} ({poison}) b={b} row {i} lane {l}"
                            );
                        }
                    }
                    assert!(ys[6 * b..].iter().all(|&s| s == 7.0));
                }
            }
        }
    }

    #[test]
    fn row_tiles_are_the_along_row_dot_on_every_tile_edge() {
        use crate::simd::{self, Variant};
        let v = Variant::Vector;
        if !simd::tile_dots_available(v) {
            return;
        }
        let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        let mut rng = crate::rng::StdRng::seed_from_u64(0x7E4D);
        for rows in [1usize, 7, 8, 9, 15, 16, 17, 31, 32, 33, 39, 48] {
            for cols in [1usize, 7, 8, 9, 64, 102] {
                // Both zeros, a subnormal and ±65504 among random weights;
                // row 1 is all `-0.0`.
                let a = Matrix::from_fn(rows, cols, |r, c| match (r * 5 + c * 3) % 9 {
                    _ if r == 1 => -0.0,
                    0 => 0.0,
                    1 => -0.0,
                    2 => 3.0 * 2.0f32.powi(-24),
                    3 => 65504.0,
                    4 => -65504.0,
                    _ => rng.gen_f32() * 2.0 - 1.0,
                });
                let plain: Vec<f32> = (0..cols).map(|_| rng.gen_f32().abs()).collect();
                let mut special: Vec<f32> = (0..cols).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
                for (c, s) in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
                    .into_iter()
                    .enumerate()
                {
                    if c < cols {
                        special[(c * 5) % cols] = s;
                    }
                }
                let t = RowTiles::new(&a);
                for x in [&plain, &special] {
                    let mut y = vec![f32::NAN; rows];
                    t.gemv_into(v, x, &mut y).unwrap();
                    for (r, &got) in y.iter().enumerate() {
                        let want = simd::dot_variant(v, a.row(r), x);
                        assert!(same(got, want), "{rows}x{cols} row {r}: {got} vs {want}");
                    }
                }
            }
        }
        let t = RowTiles::new(&Matrix::zeros(3, 4));
        assert!(t.gemv_into(v, &[0.0; 3], &mut [0.0; 3]).is_err());
        assert!(t.gemv_into(v, &[0.0; 4], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn row_tiles_are_lane_major_and_start_on_a_cache_line_when_cloned_too() {
        let a = Matrix::from_fn(39, 33, |r, c| (r * 33 + c) as f32);
        let t = RowTiles::new(&a);
        for t in [t.clone(), t] {
            let values = t.values.as_slice();
            assert_eq!(values[..3], [a[(0, 0)], a[(1, 0)], a[(2, 0)]]);
            assert_eq!(values[16], a[(0, 1)]);
            assert_eq!(values[32 * 33..32 * 33 + 2], [a[(32, 0)], a[(33, 0)]]);
            assert_eq!((values.as_ptr() as usize % 64, values.len()), (0, 39 * 33));
        }
    }

    #[test]
    fn gemv_transposed_matches_explicit_transpose() {
        let a = seq_matrix(5, 7);
        let x: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let want = gemv(&a.transposed(), &x).unwrap();
        let got = gemv_transposed(&a, &x).unwrap();
        for (w, g) in want.iter().zip(&got) {
            assert!(approx_eq(*w, *g, 1e-4));
        }
    }

    #[test]
    fn ger_outer_product() {
        let mut a = Matrix::zeros(2, 3);
        ger(&mut a, 2.0, &[1.0, 2.0], &[1.0, 0.5, 0.0]).unwrap();
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 1.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(1, 2)], 0.0);
        assert!(ger(&mut a, 1.0, &[1.0], &[1.0]).is_err());
    }

    #[test]
    fn matmul_skips_zeros_consistently() {
        // The zero-skip fast path must not change results.
        let mut a = seq_matrix(6, 6);
        for i in 0..6 {
            a[(i, i)] = 0.0;
        }
        let b = seq_matrix(6, 6);
        let dense = matmul(&a, &b).unwrap();
        let blocked = matmul_blocked(&a, &b, 4).unwrap();
        for (x, y) in dense.as_slice().iter().zip(blocked.as_slice()) {
            assert!(approx_eq(*x, *y, 1e-3));
        }
    }
}
