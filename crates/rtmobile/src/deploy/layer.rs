//! One compiled GRU layer and its two step bodies: the serial reference
//! and the lane-major production step, in two halves (the input products,
//! then the recurrence) that the production frame loops share.

use super::format::RuntimePrecision;
use rtm_exec::ExecError;
use rtm_sparse::BspcMatrix;
use rtm_tensor::activations::{sigmoid_slice, tanh_slice};
use rtm_tensor::f16::{quantize_f16, quantize_f16_slice};
use rtm_tensor::Vector;

/// One compiled GRU layer: six BSPC gate matrices plus biases, executed
/// at the layer's own storage precision — the one value store each gate
/// holds (a compile gives every layer the same one; a bundle written with
/// per-layer precisions still loads).
#[derive(Debug, Clone)]
pub struct CompiledGruLayer {
    pub(crate) w_z: BspcMatrix,
    pub(crate) u_z: BspcMatrix,
    pub(crate) b_z: Vec<f32>,
    pub(crate) w_r: BspcMatrix,
    pub(crate) u_r: BspcMatrix,
    pub(crate) b_r: Vec<f32>,
    pub(crate) w_n: BspcMatrix,
    pub(crate) u_n: BspcMatrix,
    pub(crate) b_n: Vec<f32>,
    pub(crate) hidden: usize,
    pub(crate) precision: RuntimePrecision,
}

/// Reusable workspace for the compiled streaming loop.
///
/// One instance serves every layer of every frame of a stream: the gate
/// planes and recurrent-SpMV temporaries live here and are resized on use,
/// so the steady state of [`super::CompiledNetwork::forward`] /
/// [`super::CompiledNetwork::forward_with`] allocates nothing but the
/// returned logits.
///
/// The three gate planes hold one slot per frame of the step's input
/// products: one slot for a lockstep step, up to a chunk of frames for
/// [`super::CompiledNetwork::forward_with`], which runs the input products
/// of a whole chunk before its recurrence.
#[derive(Debug, Clone, Default)]
pub struct GruRuntimeScratch {
    /// Update gate, `[frames × hidden·b]`.
    z: Vec<f32>,
    /// Reset gate, `[frames × hidden·b]`.
    r: Vec<f32>,
    /// Candidate state, `[frames × hidden·b]`.
    n: Vec<f32>,
    /// Reset-gated state `r ⊙ h_prev`.
    rh: Vec<f32>,
    /// The recurrent product of the gate being assembled.
    tmp: Vec<f32>,
}

impl GruRuntimeScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> GruRuntimeScratch {
        GruRuntimeScratch::default()
    }

    /// Sizes the gate planes for `frames` slots of width `hidden`, and the
    /// per-frame temporaries for one.
    ///
    /// The batched step reuses the same workspace with
    /// `hidden = layer_width × lanes`: every buffer is a flat lane-major
    /// `[width × b]` plane, so sizing is the only difference.
    pub(super) fn reserve(&mut self, frames: usize, hidden: usize) {
        self.z.resize(frames * hidden, 0.0);
        self.r.resize(frames * hidden, 0.0);
        self.n.resize(frames * hidden, 0.0);
        self.rh.resize(hidden, 0.0);
        self.tmp.resize(hidden, 0.0);
    }
}

impl CompiledGruLayer {
    /// The storage precision this layer's gate kernels stream.
    pub fn precision(&self) -> RuntimePrecision {
        self.precision
    }

    /// The six gate matrices in wire order: `w_z u_z w_r u_r w_n u_n`,
    /// each holding the one value store of the layer's precision.
    pub fn gates(&self) -> [&BspcMatrix; 6] {
        [
            &self.w_z, &self.u_z, &self.w_r, &self.u_r, &self.w_n, &self.u_n,
        ]
    }

    /// The reference step: one serial GRU step, allocation-free — gates and
    /// temporaries live in `scratch`, the fresh state lands in `h_out`
    /// (resized on entry). Every gate SpMV streams the layer's compiled
    /// storage precision.
    pub(super) fn step_into(
        &self,
        x: &[f32],
        h_prev: &[f32],
        scratch: &mut GruRuntimeScratch,
        h_out: &mut Vec<f32>,
    ) {
        let quantize = |v: &mut [f32]| {
            if self.precision == RuntimePrecision::F16 {
                for e in v.iter_mut() {
                    *e = quantize_f16(*e);
                }
            }
        };
        let prec = self.precision.storage();
        scratch.reserve(1, self.hidden);
        h_out.resize(self.hidden, 0.0);

        self.w_z
            .spmv_prec_into(prec, x, &mut scratch.z)
            .expect("dims");
        self.u_z
            .spmv_prec_into(prec, h_prev, &mut scratch.tmp)
            .expect("dims");
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.z);
        Vector::axpy(1.0, &self.b_z, &mut scratch.z);
        sigmoid_slice(&mut scratch.z);
        quantize(&mut scratch.z);

        self.w_r
            .spmv_prec_into(prec, x, &mut scratch.r)
            .expect("dims");
        self.u_r
            .spmv_prec_into(prec, h_prev, &mut scratch.tmp)
            .expect("dims");
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.r);
        Vector::axpy(1.0, &self.b_r, &mut scratch.r);
        sigmoid_slice(&mut scratch.r);
        quantize(&mut scratch.r);

        Vector::hadamard_into(&scratch.r, h_prev, &mut scratch.rh);
        self.w_n
            .spmv_prec_into(prec, x, &mut scratch.n)
            .expect("dims");
        self.u_n
            .spmv_prec_into(prec, &scratch.rh, &mut scratch.tmp)
            .expect("dims");
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.n);
        Vector::axpy(1.0, &self.b_n, &mut scratch.n);
        tanh_slice(&mut scratch.n);
        quantize(&mut scratch.n);

        for i in 0..self.hidden {
            h_out[i] = (1.0 - scratch.z[i]) * scratch.n[i] + scratch.z[i] * h_prev[i];
        }
        quantize(h_out);
    }

    /// The production step: one GRU step for `b ≥ 1` independent streams
    /// through a single pass over the gate weights (weight-stationary
    /// batching). `xs`, `hs_prev` and `hs_out` are lane-major: element `i`
    /// of stream `j` at `i·b + j`; a single stream is `b == 1`.
    ///
    /// Each gate product walks its index structure once and applies every
    /// row to all `b` input columns via the parallel engine (§IV-B: row
    /// groups of one kernel go to parallel threads; BSPC's stripe-grouped
    /// row tiles are those groups), so index
    /// decode and weight traffic amortize across the batch. One lane runs
    /// [`rtm_exec::Executor::spmv_into`], more run
    /// [`spmm_into`](rtm_exec::Executor::spmm_into) — the same row-range
    /// kernel, counted under `kernel.spmv.*` / `kernel.spmm.*`.
    /// Lane `j` of the output is bit-identical to the reference step of
    /// [`super::CompiledNetwork::forward`] on lane `j`'s column, for every
    /// thread count and simd policy: the kernels replay the serial
    /// accumulation order per lane, all axpys here use `α = 1` (where FMA
    /// and mul+add round identically), and the remaining ops are
    /// element-wise with one rounding each. Under int8 the lane contract
    /// holds exactly: the batched kernel quantizes each lane's activation
    /// column with its own scale, reproducing the serial step's codes.
    ///
    /// The step is its two halves back to back: the input half (the three
    /// `W·x`) for one frame, then the recurrent half (the three `U·h` and
    /// the gate epilogues). [`super::CompiledNetwork::forward_with`] runs
    /// the same halves over a chunk of frames at a time.
    ///
    /// `precision` must be the layer's compiled
    /// [`precision`](CompiledGruLayer::precision): its gates hold the value
    /// store of that precision and no other.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NotHeld`] when `precision` is not the layer's
    /// (nothing is dispatched), [`ExecError::Shape`] when `xs` is not
    /// `[input × b]` or `hs_prev` is not `[hidden × b]` lane-major (nothing
    /// is dispatched for the failing kernel), and
    /// [`ExecError::WorkerPanicked`] if a kernel task panics. On error the
    /// scratch buffers and `hs_out` hold unspecified — but initialized —
    /// data.
    #[allow(clippy::too_many_arguments)]
    pub fn step_batch_into(
        &self,
        exec: &rtm_exec::Executor,
        xs: &[f32],
        hs_prev: &[f32],
        b: usize,
        precision: RuntimePrecision,
        scratch: &mut GruRuntimeScratch,
        hs_out: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        if precision != self.precision {
            return Err(ExecError::NotHeld(precision.storage()));
        }
        self.input_products_into(exec, xs, 1, b, scratch)?;
        hs_out.resize(self.hidden * b, 0.0);
        self.recurrent_into(exec, hs_prev, b, scratch, 0, hs_out)
    }

    /// The input half of [`CompiledGruLayer::step_batch_into`]: the three
    /// input products `W·x` of `frames` consecutive steps, each `[input × b]`
    /// lane-major and laid end to end in `xs`, into the gate planes' slots
    /// `0..frames`. Each gate's weights serve all `frames` inputs back to
    /// back, one lane-count product per frame.
    pub(super) fn input_products_into(
        &self,
        exec: &rtm_exec::Executor,
        xs: &[f32],
        frames: usize,
        b: usize,
        scratch: &mut GruRuntimeScratch,
    ) -> Result<(), ExecError> {
        let hb = self.hidden * b;
        scratch.reserve(frames, hb);
        let width = xs.len() / frames.max(1);
        debug_assert_eq!(width * frames, xs.len(), "whole frames");
        let prec = self.precision.storage();
        for (gate, plane) in [
            (&self.w_z, &mut scratch.z),
            (&self.w_r, &mut scratch.r),
            (&self.w_n, &mut scratch.n),
        ] {
            for t in 0..frames {
                let x = &xs[t * width..(t + 1) * width];
                product(exec, gate, prec, x, b, &mut plane[t * hb..(t + 1) * hb])?;
            }
        }
        Ok(())
    }

    /// The recurrent half of [`CompiledGruLayer::step_batch_into`]: one
    /// step from `hs_prev` on the input products in the gate planes' slot
    /// `frame` (filled by [`CompiledGruLayer::input_products_into`]) —
    /// `U·h`, the biases, the activations, the f16 rounding and the blend —
    /// into `hs_out` (`[hidden × b]`).
    pub(super) fn recurrent_into(
        &self,
        exec: &rtm_exec::Executor,
        hs_prev: &[f32],
        b: usize,
        scratch: &mut GruRuntimeScratch,
        frame: usize,
        hs_out: &mut [f32],
    ) -> Result<(), ExecError> {
        // Hardware rounding where the host has it; the reference step keeps
        // the software conversion, and the two agree on every `f32`.
        let quantize = |v: &mut [f32]| {
            if self.precision == RuntimePrecision::F16 {
                quantize_f16_slice(v);
            }
        };
        let prec = self.precision.storage();
        let hb = self.hidden * b;
        let slot = frame * hb..(frame + 1) * hb;
        let GruRuntimeScratch { z, r, n, rh, tmp } = scratch;
        let (z, r, n) = (&mut z[slot.clone()], &mut r[slot.clone()], &mut n[slot]);

        product(exec, &self.u_z, prec, hs_prev, b, tmp)?;
        Vector::axpy(1.0, tmp, z);
        rtm_tensor::simd::broadcast_add(&self.b_z, b, z);
        sigmoid_slice(z);
        quantize(z);

        product(exec, &self.u_r, prec, hs_prev, b, tmp)?;
        Vector::axpy(1.0, tmp, r);
        rtm_tensor::simd::broadcast_add(&self.b_r, b, r);
        sigmoid_slice(r);
        quantize(r);

        Vector::hadamard_into(r, hs_prev, rh);
        product(exec, &self.u_n, prec, rh, b, tmp)?;
        Vector::axpy(1.0, tmp, n);
        rtm_tensor::simd::broadcast_add(&self.b_n, b, n);
        tanh_slice(n);
        quantize(n);

        for (((hi, &zi), &ni), &hp) in hs_out.iter_mut().zip(&*z).zip(&*n).zip(hs_prev) {
            *hi = (1.0 - zi) * ni + zi * hp;
        }
        quantize(hs_out);
        Ok(())
    }
}

/// One gate product for `b` lanes: the production step's one kernel entry
/// per lane count.
fn product(
    exec: &rtm_exec::Executor,
    gate: &BspcMatrix,
    prec: rtm_sparse::Precision,
    xs: &[f32],
    b: usize,
    out: &mut [f32],
) -> Result<(), ExecError> {
    if b == 1 {
        exec.spmv_into(gate, prec, xs, out)
    } else {
        exec.spmm_into(gate, prec, xs, b, out)
    }
}
