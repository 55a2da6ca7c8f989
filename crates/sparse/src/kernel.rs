//! The kernel contract every storage format implements, and the one driver
//! that executes it.
//!
//! RTMobile's runtime is a single idea (§IV-B): rows that share a column
//! stream gather it once, run unit-stride dots, and are handed to threads
//! in cost-balanced contiguous chunks. [`SparseKernel`] is that idea as an
//! interface — a format says how its work splits into *partition units*
//! and provides one row-range kernel over a precision-typed
//! [`Activations`] view — and [`drive`] is the only prologue in the
//! workspace: shape and store check, zero-fill, trace counters, int8
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
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Error of a kernel call, returned before any output byte is written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Operand shapes disagree with the matrix.
    Shape(ShapeError),
    /// The matrix holds no value store at this precision (a compiled or
    /// decoded BSPC gate holds only the one it was lowered at, CSR only
    /// f32).
    NotHeld(Precision),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Shape(e) => write!(f, "{e}"),
            KernelError::NotHeld(p) => write!(f, "the matrix holds no {} values", p.tag()),
        }
    }
}

impl Error for KernelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KernelError::Shape(e) => Some(e),
            KernelError::NotHeld(_) => None,
        }
    }
}

/// The activations of one kernel call, typed by the weight precision that
/// will stream against them. Lane-major for `b` lanes: element `c` of lane
/// `j` at `[c·b + j]` (a plain vector when `b == 1`).
#[derive(Debug, Clone, Copy)]
pub enum Activations<'a> {
    /// f32 activations against the f32 weights.
    F32(&'a [f32]),
    /// f32 activations against the f16 weights.
    F16(&'a [f32]),
    /// Activations quantized once per call — every chunk shares the codes —
    /// against the int8 weights.
    Int8 {
        /// int8 activation codes, same layout as the f32 plane.
        codes: &'a [i8],
        /// One symmetric activation scale per lane (`b` entries).
        scales: &'a [f32],
    },
}

impl<'a> Activations<'a> {
    /// The activations of frames `frames` of a frame-major plane of
    /// `cols`-element frames (one int8 scale per frame).
    pub(crate) fn frames(self, frames: Range<usize>, cols: usize) -> Activations<'a> {
        let values = frames.start * cols..frames.end * cols;
        match self {
            Activations::F32(xs) => Activations::F32(&xs[values]),
            Activations::F16(xs) => Activations::F16(&xs[values]),
            Activations::Int8 { codes, scales } => Activations::Int8 {
                codes: &codes[values],
                scales: &scales[frames],
            },
        }
    }
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

/// A frame-major kernel bound to its activations: `(frames, ys)` computes
/// the frames `frames` of the call into `ys`, their `[frames × rows]` part
/// of the output.
pub type FramesKernel<'a> = dyn Fn(Range<usize>, &mut [f32]) + Sync + 'a;

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

    /// Whether the matrix holds a value store at `prec` ([`drive`] refuses
    /// the others).
    fn holds(&self, prec: Precision) -> bool;

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
    /// May panic on out-of-range units, `b == 0`, buffers that do not
    /// cover the range, or a precision the matrix does not
    /// [`hold`](SparseKernel::holds); [`drive`] validates all of them first.
    fn rows_into(
        &self,
        activations: Activations<'_>,
        b: usize,
        units: Range<usize>,
        ys: &mut [f32],
        y_base: usize,
    );

    /// The frame-major kernel: `frames` one-lane inputs back to back
    /// (`[frames × cols]`, an int8 scale per frame) into `ys`
    /// (`[frames × rows]`, row `r` of frame `t` at `ys[t·rows + r]`), every
    /// unit of every frame; frame `t` is bit-identical to the one-lane
    /// [`rows_into`](SparseKernel::rows_into) on frame `t`, which is what
    /// this default runs, frame by frame. A format overrides it where frames
    /// can share its weight loads. Never traces.
    ///
    /// # Panics
    ///
    /// As [`rows_into`](SparseKernel::rows_into), for each frame.
    fn frames_into(&self, activations: Activations<'_>, frames: usize, ys: &mut [f32]) {
        frame_by_frame(self, activations, frames, ys)
    }

    /// Serial SpMV `y = A x` at storage precision `prec`.
    ///
    /// * [`Precision::F32`] streams the f32 values.
    /// * [`Precision::F16`] streams the stored f16 bits; decoding is exact,
    ///   so the result is bit-identical to the f32 kernel run on
    ///   f16-rounded values under every SIMD policy.
    /// * [`Precision::Int8`] quantizes `x` once (`sx = max|x| / 127`),
    ///   accumulates int8 × int8 in exact i32 and dequantizes at the store,
    ///   so the result is bit-identical across SIMD variants and thread
    ///   counts by construction.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Shape`] when `x.len() != self.cols()` or
    /// `y.len() != self.rows()`, and [`KernelError::NotHeld`] when the
    /// matrix holds no store at `prec`.
    fn spmv_prec_into(&self, prec: Precision, x: &[f32], y: &mut [f32]) -> Result<(), KernelError> {
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
    /// Returns [`KernelError::Shape`] when `xs.len() != self.cols() * b` or
    /// `ys.len() != self.rows() * b`, and [`KernelError::NotHeld`] when the
    /// matrix holds no store at `prec`.
    fn spmm_prec_into(
        &self,
        prec: Precision,
        xs: &[f32],
        b: usize,
        ys: &mut [f32],
    ) -> Result<(), KernelError> {
        drive(self, KernelOp::Spmm, prec, xs, b, ys, |kernel, ys| {
            kernel(0..self.units(), ys, 0);
            Ok(())
        })
    }

    /// Allocating f32 SpMV.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when `x.len() != self.cols()` or the matrix
    /// holds no f32 store.
    fn spmv(&self, x: &[f32]) -> Result<Vec<f32>, KernelError> {
        let mut y = vec![0.0f32; self.rows()];
        self.spmv_prec_into(Precision::F32, x, &mut y)?;
        Ok(y)
    }

    /// Allocating f32 SpMM over `b` lanes.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] when `xs.len() != self.cols() * b` or the
    /// matrix holds no f32 store.
    fn spmm(&self, xs: &[f32], b: usize) -> Result<Vec<f32>, KernelError> {
        let mut ys = vec![0.0f32; self.rows() * b];
        self.spmm_prec_into(Precision::F32, xs, b, &mut ys)?;
        Ok(ys)
    }
}

/// [`SparseKernel::frames_into`] one frame at a time: the one-lane
/// [`SparseKernel::rows_into`] over every unit, per frame.
pub(crate) fn frame_by_frame<K: SparseKernel + ?Sized>(
    k: &K,
    activations: Activations<'_>,
    frames: usize,
    ys: &mut [f32],
) {
    let (rows, cols) = (k.rows(), k.cols());
    for t in 0..frames {
        let y = &mut ys[t * rows..(t + 1) * rows];
        k.rows_into(activations.frames(t..t + 1, cols), 1, 0..k.units(), y, 0);
    }
}

/// Executes one kernel call: validates shapes and the store, zero-fills if the format
/// needs it, counts the call, quantizes int8 activations once into
/// thread-local scratch, then hands the bound row-range kernel and the
/// output to `run`, which decides where the unit range executes — all of
/// it here (the serial entries) or in chunks on a pool (`rtm-exec`).
///
/// `b == 0` is the empty product: nothing is counted or run.
///
/// # Errors
///
/// Returns a [`KernelError`] (converted into `E`) when `xs` is not
/// `[cols × b]`, `ys` not `[rows × b]` or `k` holds no store at `prec` —
/// before any output byte is written — and whatever `run` returns.
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
    E: From<KernelError>,
{
    if !prologue(k, op, prec, xs, b, ys, 1)? {
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

/// [`drive`] for `frames` one-lane inputs back to back (`xs` is
/// `[frames × cols]`, `ys` `[frames × rows]`): the same checks and
/// zero-fill, the call counted as `frames` SpMV calls, int8 quantized once
/// per frame (each frame with its own scale, its codes those of a one-frame
/// call), and the bound [`SparseKernel::frames_into`] handed to `run`, which
/// decides where the frames execute.
///
/// # Errors
///
/// As [`drive`], with `frames` in the place of `b`.
pub fn drive_frames<K, E>(
    k: &K,
    prec: Precision,
    xs: &[f32],
    frames: usize,
    ys: &mut [f32],
    run: impl FnOnce(&FramesKernel<'_>, &mut [f32]) -> Result<(), E>,
) -> Result<(), E>
where
    K: SparseKernel + ?Sized,
    E: From<KernelError>,
{
    if !prologue(k, KernelOp::Spmv, prec, xs, frames, ys, frames as u64)? {
        return Ok(());
    }
    let cols = k.cols();
    let go = |activations: Activations<'_>| {
        run(
            &|range: Range<usize>, ys| {
                let n = range.len();
                k.frames_into(activations.frames(range, cols), n, ys)
            },
            ys,
        )
    };
    match prec {
        Precision::F32 => go(Activations::F32(xs)),
        Precision::F16 => go(Activations::F16(xs)),
        Precision::Int8 => scratch::with_quantized_frames(xs, frames, |codes, scales| {
            go(Activations::Int8 { codes, scales })
        }),
    }
}

/// The checks, zero-fill and counters [`drive`] and [`drive_frames`] share:
/// `xs` must be `[cols × n]` and `ys` `[rows × n]`, the call is counted
/// `calls` times. `Ok(false)` when there is nothing to run.
fn prologue<K: SparseKernel + ?Sized>(
    k: &K,
    op: KernelOp,
    prec: Precision,
    xs: &[f32],
    n: usize,
    ys: &mut [f32],
    calls: u64,
) -> Result<bool, KernelError> {
    if xs.len() != k.cols() * n || ys.len() != k.rows() * n {
        let shape = ShapeError {
            op: op.tag(),
            lhs: (k.rows(), k.cols()),
            rhs: (xs.len(), ys.len()),
        };
        return Err(KernelError::Shape(shape));
    }
    if !k.holds(prec) {
        return Err(KernelError::NotHeld(prec));
    }
    if n == 0 {
        return Ok(false);
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
            (keys[0], calls),
            (by_precision, calls),
            (
                rtm_trace::key::KERNEL_ROWS,
                calls * k.computed_rows() as u64,
            ),
            (rtm_trace::key::KERNEL_NNZ, calls * k.stored_len() as u64),
        ]);
    }
    Ok(k.units() != 0)
}
