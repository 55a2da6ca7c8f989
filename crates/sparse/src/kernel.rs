//! The kernel contract every storage format implements, and the one driver
//! that executes it.
//!
//! RTMobile's runtime is a single idea (§IV-B): rows that share a column
//! stream gather it once, run unit-stride dots, and are handed to threads
//! in cost-balanced contiguous chunks. [`SparseKernel`] is that idea as an
//! interface — a format says how its work splits into *partition units*
//! and provides one row-range kernel over a precision-typed
//! [`Activations`] view — and [`drive`] is the only prologue in the
//! workspace: shape check, zero-fill, trace counters, int8
//! quantize-once, run. Serial execution ([`SparseKernel::spmv_prec_into`],
//! [`SparseKernel::spmm_prec_into`]) passes a runner that covers the whole
//! unit range on the calling thread; `rtm_exec::Executor` passes one that
//! fans the same range out over its pool. Both therefore run the same
//! function on the same activations, which is why serial, pooled and
//! batched results are bit-identical by construction.

use crate::footprint::Precision;
use crate::scratch;
use rtm_tensor::ShapeError;
use rtm_trace::key::KernelKeys;
use std::ops::Range;

/// The activations of one kernel call, typed by the weight precision that
/// will stream against them. Lane-major for `b` lanes: element `c` of lane
/// `j` at `[c·b + j]` (a plain vector when `b == 1`).
#[derive(Debug, Clone, Copy)]
pub enum Activations<'a> {
    /// f32 activations against the f32 weights.
    F32(&'a [f32]),
    /// f32 activations against the f16 weight sidecar.
    F16(&'a [f32]),
    /// Activations quantized once per call — every chunk shares the codes —
    /// against the int8 weight sidecar.
    Int8 {
        /// int8 activation codes, same layout as the f32 plane.
        codes: &'a [i8],
        /// One symmetric activation scale per lane (`b` entries).
        scales: &'a [f32],
    },
}

/// Which entry point a call came through. SpMV is SpMM at `b == 1` as far
/// as the kernels are concerned; the distinction only names the trace
/// counter (`kernel.spmv.*` vs `kernel.spmm.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelOp {
    /// Single-vector product.
    Spmv,
    /// Lane-major multi-vector product.
    Spmm,
}

impl KernelOp {
    /// Short lowercase label ("spmv" / "spmm").
    pub fn tag(self) -> &'static str {
        match self {
            KernelOp::Spmv => "spmv",
            KernelOp::Spmm => "spmm",
        }
    }
}

/// A row-range kernel bound to its activations and lane count:
/// `(units, ys, y_base)` computes the output rows of partition units
/// `units` into `ys`, which starts at logical row `y_base`.
pub type RangeKernel<'a> = dyn Fn(Range<usize>, &mut [f32], usize) + Sync + 'a;

/// What a sparse storage format provides to be executed — serially, on the
/// pool, batched, traced, tuned and dispatched from a compiled model.
///
/// Work is described in **partition units**: contiguous, ascending pieces
/// of the output (a row tile for BSPC, a row for CSR). Unit `u` writes
/// output rows starting at
/// [`unit_first_row`](SparseKernel::unit_first_row)`(u)` and strictly
/// before `unit_first_row(u + 1)`, so any cut of the unit range maps to
/// disjoint output slices.
pub trait SparseKernel: Sync {
    /// Rows of the logical matrix.
    fn rows(&self) -> usize;

    /// Columns of the logical matrix.
    fn cols(&self) -> usize;

    /// The format's registered `kernel.*` counter keys — one of the
    /// `rtm_trace::key::KERNEL_*` tables, so a format without a table entry
    /// does not compile rather than running uncounted.
    fn trace_keys(&self) -> &'static KernelKeys;

    /// Short lowercase format label ("bspc" / "csr").
    fn tag(&self) -> &'static str {
        self.trace_keys().format
    }

    /// Stored values one call streams (what `kernel.nnz` counts).
    fn stored_len(&self) -> usize;

    /// Output rows one call computes (what `kernel.rows` counts): all of
    /// them unless the format skips pruned rows.
    fn computed_rows(&self) -> usize {
        self.rows()
    }

    /// Number of partition units.
    fn units(&self) -> usize;

    /// Relative cost of unit `u` (stored values it streams) — what the
    /// executor balances across threads.
    fn unit_cost(&self, u: usize) -> usize;

    /// First output row unit `u` writes.
    fn unit_first_row(&self, u: usize) -> usize;

    /// Whether [`rows_into`](SparseKernel::rows_into) leaves output rows
    /// untouched (pruned rows) or accumulates into them, so the driver
    /// must zero the output first.
    fn needs_zero_fill(&self) -> bool;

    /// The row-range kernel: computes the output rows of `units` for `b`
    /// lanes into `ys`, row `r` of lane `j` at `ys[(r - y_base)·b + j]`.
    /// One lane-major kernel per value kind (float, int8) serves every
    /// `b ≥ 1` — the lane primitives it calls are total in `b`, so an
    /// implementation never branches on `b == 1` — and lane `j` is
    /// bit-identical to the `b == 1` result on column `j`. Never traces —
    /// [`drive`] counts the call once.
    ///
    /// # Panics
    ///
    /// May panic on out-of-range units, `b == 0`, or buffers that do not
    /// cover the range; [`drive`] validates shapes first.
    fn rows_into(
        &self,
        activations: Activations<'_>,
        b: usize,
        units: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    );

    /// Serial SpMV `y = A x` at storage precision `prec`.
    ///
    /// * [`Precision::F32`] streams the f32 values.
    /// * [`Precision::F16`] decodes the fp16 sidecar; decoding is exact,
    ///   so the result is bit-identical to the f32 kernel run on
    ///   f16-rounded values under every SIMD policy.
    /// * [`Precision::Int8`] quantizes `x` once (`sx = max|x| / 127`),
    ///   accumulates int8 × int8 in exact i32 and dequantizes at the store,
    ///   so the result is bit-identical across SIMD variants and thread
    ///   counts by construction.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != self.cols()` or
    /// `y.len() != self.rows()`.
    fn spmv_prec_into(&self, prec: Precision, x: &[f32], y: &mut [f32]) -> Result<(), ShapeError> {
        drive(self, KernelOp::Spmv, prec, x, 1, y, |kernel, y| {
            kernel(0..self.units(), y, 0);
            Ok(())
        })
    }

    /// Serial batched SpMM `Y = A X` over `b` lane-major lanes
    /// (`xs[c·b + j]`, `ys[r·b + j]`) at storage precision `prec`. The
    /// index structure is walked once for all lanes; int8 quantizes each
    /// lane with its own scale. Lane `j` is bit-identical to
    /// [`spmv_prec_into`](SparseKernel::spmv_prec_into) of column `j`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `xs.len() != self.cols() * b` or
    /// `ys.len() != self.rows() * b`.
    fn spmm_prec_into(
        &self,
        prec: Precision,
        xs: &[f32],
        b: usize,
        ys: &mut [f32],
    ) -> Result<(), ShapeError> {
        drive(self, KernelOp::Spmm, prec, xs, b, ys, |kernel, ys| {
            kernel(0..self.units(), ys, 0);
            Ok(())
        })
    }

    /// Allocating f32 SpMV.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `x.len() != self.cols()`.
    fn spmv(&self, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
        let mut y = vec![0.0f32; self.rows()];
        self.spmv_prec_into(Precision::F32, x, &mut y)?;
        Ok(y)
    }

    /// Allocating f32 SpMM over `b` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `xs.len() != self.cols() * b`.
    fn spmm(&self, xs: &[f32], b: usize) -> Result<Vec<f32>, ShapeError> {
        let mut ys = vec![0.0f32; self.rows() * b];
        self.spmm_prec_into(Precision::F32, xs, b, &mut ys)?;
        Ok(ys)
    }
}

/// Executes one kernel call: validates shapes, zero-fills if the format
/// needs it, counts the call, quantizes int8 activations once into
/// thread-local scratch, then hands the bound row-range kernel and the
/// output to `run`, which decides where the unit range executes — all of
/// it here (the serial entries) or in chunks on a pool (`rtm-exec`).
///
/// `b == 0` is the empty product: nothing is counted or run.
///
/// # Errors
///
/// Returns a [`ShapeError`] (converted into `E`) when `xs` is not
/// `[cols × b]` or `ys` not `[rows × b]` — before any output byte is
/// written — and whatever `run` returns.
pub fn drive<K, E>(
    k: &K,
    op: KernelOp,
    prec: Precision,
    xs: &[f32],
    b: usize,
    ys: &mut [f32],
    run: impl FnOnce(&RangeKernel<'_>, &mut [f32]) -> Result<(), E>,
) -> Result<(), E>
where
    K: SparseKernel + ?Sized,
    E: From<ShapeError>,
{
    if xs.len() != k.cols() * b || ys.len() != k.rows() * b {
        return Err(ShapeError {
            op: op.tag(),
            lhs: (k.rows(), k.cols()),
            rhs: (xs.len(), ys.len()),
        }
        .into());
    }
    if b == 0 {
        return Ok(());
    }
    if k.needs_zero_fill() {
        ys.fill(0.0);
    }
    if rtm_trace::enabled() {
        let keys = k.trace_keys();
        let keys = match op {
            KernelOp::Spmv => &keys.spmv,
            KernelOp::Spmm => &keys.spmm,
        };
        let by_precision = match prec {
            Precision::F32 => keys[1],
            Precision::F16 => keys[2],
            Precision::Int8 => keys[3],
        };
        rtm_trace::count_many(&[
            (keys[0], 1),
            (by_precision, 1),
            (rtm_trace::key::KERNEL_ROWS, k.computed_rows() as u64),
            (rtm_trace::key::KERNEL_NNZ, k.stored_len() as u64),
        ]);
    }
    if k.units() == 0 {
        return Ok(());
    }
    let go = |activations: Activations<'_>| {
        run(
            &|units, ys, y_base| k.rows_into(activations, b, units, ys, y_base),
            ys,
        )
    };
    match prec {
        Precision::F32 => go(Activations::F32(xs)),
        Precision::F16 => go(Activations::F16(xs)),
        Precision::Int8 => scratch::with_quantized(xs, b, |codes, scales| {
            go(Activations::Int8 { codes, scales })
        }),
    }
}
