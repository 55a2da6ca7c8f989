//! Pooled dense GEMV/GEMM — the unpruned baseline on the same engine.
//!
//! Dense rows all cost the same, so the partition is an even row split;
//! the chunk loop is the executor's shared one. The row kernel is public
//! so benchmarks can time a chunk's busy work in isolation; it is the row
//! loop of the serial `rtm_tensor::gemm` kernels over the chunk's rows, so
//! pooled results are bit-identical to serial ones.

use crate::error::ExecError;
use crate::spmv::Executor;
use rtm_tensor::Matrix;
use std::ops::Range;

/// Computes `ys[(r - y_base)·b + j] = A[r] · X[:, j]` for dense rows `rows`
/// over `b` interleaved input lanes (a plain GEMV row range at `b == 1`):
/// [`rtm_tensor::gemm::dense_rows_into`].
pub fn dense_rows_batch_into(
    m: &Matrix,
    xs: &[f32],
    b: usize,
    rows: Range<usize>,
    ys: &mut [f32],
    y_base: usize,
) {
    rtm_tensor::gemm::dense_rows_into(m, xs, b, rows, ys, y_base)
}

impl Executor {
    /// Parallel dense GEMV into a caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `x.len() != m.cols()` or
    /// `y.len() != m.rows()`.
    pub fn gemv_dense_into(&self, m: &Matrix, x: &[f32], y: &mut [f32]) -> Result<(), ExecError> {
        self.gemm_dense_into(m, x, 1, y)
    }

    /// Parallel dense GEMM over `b` interleaved input lanes. Counts what
    /// the serial `rtm_tensor::gemm::gemv_batch_into` counts: nothing for
    /// the empty product `b == 0`, `kernel.gemv.dense` at one lane,
    /// `kernel.gemm.dense` above.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `xs.len() != m.cols() * b` or
    /// `ys.len() != m.rows() * b`.
    pub fn gemm_dense_into(
        &self,
        m: &Matrix,
        xs: &[f32],
        b: usize,
        ys: &mut [f32],
    ) -> Result<(), ExecError> {
        let calls_key = if b == 1 {
            rtm_trace::key::GEMV_DENSE
        } else {
            rtm_trace::key::GEMM_DENSE
        };
        if xs.len() != m.cols() * b || ys.len() != m.rows() * b {
            return Err(ExecError::shape(
                calls_key,
                (m.rows(), m.cols()),
                (xs.len(), ys.len()),
            ));
        }
        if b == 0 {
            return Ok(());
        }
        rtm_trace::count_many(&[
            (calls_key, 1),
            (rtm_trace::key::KERNEL_ROWS, m.rows() as u64),
            (rtm_trace::key::KERNEL_NNZ, (m.rows() * m.cols()) as u64),
        ]);
        let cost = |_| m.cols().max(1);
        self.run_chunks(m.rows(), cost, |r| r, b, ys, &|rows, ys, base| {
            dense_rows_batch_into(m, xs, b, rows, ys, base)
        })
    }
}
