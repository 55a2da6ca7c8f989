//! The [`Executor`] front-end: one pooled driver for every
//! [`SparseKernel`].
//!
//! Three design rules, all from the paper's mobile runtime (§IV-B):
//!
//! 1. **Pattern-grouped chunking.** Work is partitioned by cost (nonzeros),
//!    not by row count, over the format's partition units — for BSPC the
//!    units are row tiles (adjacent kept rows of one stripe) and the stripes
//!    *are* the pattern groups the reorder produces, so contiguous chunks
//!    are exactly "similar-pattern rows → one chunk per thread".
//! 2. **No locks on the hot path.** Chunk boundaries in the (ascending)
//!    unit space map to disjoint, ascending output ranges, so each thread
//!    receives its own `&mut` slice of `y` via `split_at_mut` and the
//!    batch needs no synchronization beyond completion.
//! 3. **One kernel.** The executor owns no arithmetic: a chunk runs the
//!    format's own row-range kernel ([`SparseKernel::rows_into`]) — the
//!    function the serial entries run over the whole range — behind the
//!    shared prologue [`rtm_sparse::kernel::drive`]. Results are therefore
//!    bit-identical to serial ones for every thread count, and a 1-thread
//!    executor *is* the serial path.

use crate::error::ExecError;
use crate::partition::Partition;
use crate::pool::{Task, WorkerPool};
use rtm_sparse::kernel::{drive, drive_frames, FramesKernel, KernelOp, RangeKernel};
use rtm_sparse::{BspcMatrix, Precision, SparseKernel};

/// The parallel execution engine: a persistent [`WorkerPool`] plus the
/// generic pooled SpMV/SpMM entry points.
///
/// An `Executor` is created once (threads match the target's core count —
/// the paper's Kryo 485 has 4 big + 4 LITTLE cores) and reused across
/// timesteps; per-call overhead is a handful of channel messages.
#[derive(Debug)]
pub struct Executor {
    pool: WorkerPool,
}

impl Executor {
    /// Creates an engine running batches on `threads` OS threads
    /// (clamped to ≥ 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            pool: WorkerPool::new(threads),
        }
    }

    /// A 1-thread engine: every call degenerates to the serial kernel on
    /// the calling thread.
    pub fn serial() -> Executor {
        Executor::new(1)
    }

    /// Thread count (including the calling thread).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs a batch of independent tasks on the pool (used by the RNN
    /// cells to evaluate independent gate SpMVs concurrently).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WorkerPanicked`] when any task panics; the
    /// batch drains fully first and the engine stays serviceable.
    pub fn run(&self, tasks: Vec<Task<'_>>) -> Result<(), ExecError> {
        self.pool.run(tasks)
    }

    /// Fault-injection hook forwarding [`WorkerPool::sever_workers`]: tears
    /// the worker threads down so the next call exercises the respawn path.
    pub fn sever_workers(&self) {
        self.pool.sever_workers();
    }

    /// Dead worker slots respawned over the engine's lifetime (see
    /// [`WorkerPool::respawned_workers`]).
    pub fn respawned_workers(&self) -> usize {
        self.pool.respawned_workers()
    }

    /// Cumulative per-slot busy nanoseconds (see
    /// [`WorkerPool::worker_busy_ns`]); all zero unless tracing is enabled.
    pub fn worker_busy_ns(&self) -> Vec<u64> {
        self.pool.worker_busy_ns()
    }

    /// The cost-balanced partition of `k`'s units this engine would use
    /// (exposed for benchmarks and the device model's measured-imbalance
    /// path).
    pub fn partition<K: SparseKernel + ?Sized>(&self, k: &K) -> Partition {
        self.balanced(k.units(), |u| k.unit_cost(u))
    }

    fn balanced(&self, units: usize, cost: impl Fn(usize) -> usize) -> Partition {
        let costs: Vec<usize> = (0..units).map(cost).collect();
        Partition::balanced(&costs, self.threads())
    }

    /// Pooled SpMV `y = A x` at storage precision `prec` for any format.
    /// Bit-identical to [`SparseKernel::spmv_prec_into`] for every thread
    /// count: the chunks run the same row-range kernel (same per-row
    /// accumulation order), and int8 quantizes the activation vector
    /// **once** — every chunk shares the codes.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `x.len() != k.cols()` or
    /// `y.len() != k.rows()` (nothing is dispatched), and
    /// [`ExecError::WorkerPanicked`] if a chunk panics.
    pub fn spmv_into<K: SparseKernel + ?Sized>(
        &self,
        k: &K,
        prec: Precision,
        x: &[f32],
        y: &mut [f32],
    ) -> Result<(), ExecError> {
        drive(k, KernelOp::Spmv, prec, x, 1, y, |kernel, y| {
            let first_row = |u| k.unit_first_row(u);
            self.run_chunks(k.units(), |u| k.unit_cost(u), first_row, 1, y, kernel)
        })
    }

    /// Pooled SpMM over `b` lane-major input lanes into a `[rows × b]`
    /// lane-major buffer. Partitioning is the SpMV partition — a unit's
    /// cost scales by `b` uniformly, so it stays optimal — and each chunk
    /// receives all `b` lanes of its rows. Bit-identical to
    /// [`SparseKernel::spmm_prec_into`] for every thread count, and
    /// therefore lane-for-lane to `b` serial SpMV runs.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `xs.len() != k.cols() * b` or
    /// `ys.len() != k.rows() * b`, and [`ExecError::WorkerPanicked`] if a
    /// chunk panics.
    pub fn spmm_into<K: SparseKernel + ?Sized>(
        &self,
        k: &K,
        prec: Precision,
        xs: &[f32],
        b: usize,
        ys: &mut [f32],
    ) -> Result<(), ExecError> {
        drive(k, KernelOp::Spmm, prec, xs, b, ys, |kernel, ys| {
            let first_row = |u| k.unit_first_row(u);
            self.run_chunks(k.units(), |u| k.unit_cost(u), first_row, b, ys, kernel)
        })
    }

    /// Pooled SpMV of `frames` one-lane inputs back to back: `xs` is
    /// `[frames × cols]` and frame `t`'s output lands at `ys[t·rows..]`,
    /// through the format's frame-major kernel
    /// ([`SparseKernel::frames_into`]: BSPC's float stores run four frames
    /// per loaded weight). Counted as `frames` SpMV calls, and bit-identical
    /// to [`Executor::spmv_into`] per frame for every thread count: a frame's
    /// bits do not depend on the frames it runs with. One frame *is* that
    /// call, so a caller never branches on the frame count.
    ///
    /// The pool splits the frames, not the rows: a frame's output is one
    /// slice, and every thread keeps the frames' shared weight loads.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `xs.len() != frames · k.cols()` or
    /// `ys.len() != frames · k.rows()` (nothing is dispatched), and
    /// [`ExecError::WorkerPanicked`] if a task panics.
    pub fn spmv_frames_into<K: SparseKernel + ?Sized>(
        &self,
        k: &K,
        prec: Precision,
        xs: &[f32],
        frames: usize,
        ys: &mut [f32],
    ) -> Result<(), ExecError> {
        if frames == 1 {
            return self.spmv_into(k, prec, xs, ys);
        }
        drive_frames(k, prec, xs, frames, ys, |kernel, ys| {
            self.run_frames(frames, k.rows(), ys, kernel)
        })
    }

    /// Runs a frame-major kernel over `frames` frames of `rows` outputs
    /// each: all of them on the calling thread for a one-thread engine,
    /// otherwise contiguous runs of frames, one per thread (as many as
    /// there are runs).
    fn run_frames(
        &self,
        frames: usize,
        rows: usize,
        ys: &mut [f32],
        kernel: &FramesKernel<'_>,
    ) -> Result<(), ExecError> {
        if self.threads() == 1 {
            kernel(0..frames, ys);
            return Ok(());
        }
        let per = frames.div_ceil(self.threads());
        let tasks: Vec<Task<'_>> = ys
            .chunks_mut(per * rows)
            .enumerate()
            .map(|(i, ys)| {
                let range = i * per..i * per + ys.len() / rows;
                Box::new(move || kernel(range, ys)) as Task<'_>
            })
            .collect();
        self.pool.run(tasks)
    }

    /// Fans a row-range kernel out over the cost-balanced partition of
    /// `units` partition units — the one chunk loop of the engine. Unit
    /// `u` costs `cost(u)` and writes output rows from `first_row(u)` up to
    /// the next unit's first row; `kernel(range, slice, base)` computes the
    /// output rows of units `range` into `slice` (lane-major when
    /// `lane_width > 1`), which starts at row `base`.
    ///
    /// Chunk `i` owns output rows `[first_row(chunk_i.start),
    /// first_row(chunk_{i+1}.start))` (chunk 0 extends down to row 0, the
    /// last chunk up to the end of `y`). Units ascend, so the ranges are
    /// disjoint and ordered and are handed out via `split_at_mut` — the
    /// lock-free scheme every format and precision shares.
    pub(crate) fn run_chunks(
        &self,
        units: usize,
        cost: impl Fn(usize) -> usize,
        first_row: impl Fn(usize) -> usize,
        lane_width: usize,
        y: &mut [f32],
        kernel: &RangeKernel<'_>,
    ) -> Result<(), ExecError> {
        if self.threads() == 1 {
            kernel(0..units, y, 0);
            return Ok(());
        }
        let partition = self.balanced(units, cost);
        let chunks = partition.chunks();
        if chunks.len() <= 1 {
            kernel(0..units, y, 0);
            return Ok(());
        }
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(chunks.len());
        let rows = y.len() / lane_width;
        let mut tail: &mut [f32] = y;
        let mut base = 0usize;
        for (i, chunk) in chunks.iter().enumerate() {
            let end = match chunks.get(i + 1) {
                Some(next) => first_row(next.start),
                None => rows,
            };
            let (slice, rest) = tail.split_at_mut((end - base) * lane_width);
            let range = chunk.start..chunk.end;
            let slice_base = base;
            tasks.push(Box::new(move || kernel(range, slice, slice_base)));
            tail = rest;
            base = end;
        }
        self.pool.run(tasks)
    }

    /// [`Executor::spmv_into`] under its pre-trait per-format name (a
    /// one-line forward to the generic driver).
    ///
    /// # Errors
    ///
    /// As [`Executor::spmv_into`].
    pub fn spmv_bspc_prec_into(
        &self,
        m: &BspcMatrix,
        prec: Precision,
        x: &[f32],
        y: &mut [f32],
    ) -> Result<(), ExecError> {
        self.spmv_into(m, prec, x, y)
    }

    /// [`Executor::partition`] under its pre-trait per-format name (a
    /// one-line forward).
    pub fn partition_bspc(&self, m: &BspcMatrix) -> Partition {
        self.partition(m)
    }
}
