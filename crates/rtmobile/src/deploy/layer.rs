//! One compiled GRU layer and its two step bodies: the serial reference
//! and the lane-major production step.

use super::format::{GateMatrix, RuntimeFormat, RuntimePrecision};
use rtm_exec::ExecError;
use rtm_tensor::activations::{sigmoid_slice, tanh_slice};
use rtm_tensor::f16::{quantize_f16, quantize_f16_slice};
use rtm_tensor::Vector;

/// One compiled GRU layer: six sparse gate matrices plus biases, executed
/// at the layer's own storage precision and format (per-layer selection is
/// the tuner's job).
#[derive(Debug, Clone)]
pub struct CompiledGruLayer {
    pub(crate) w_z: GateMatrix,
    pub(crate) u_z: GateMatrix,
    pub(crate) b_z: Vec<f32>,
    pub(crate) w_r: GateMatrix,
    pub(crate) u_r: GateMatrix,
    pub(crate) b_r: Vec<f32>,
    pub(crate) w_n: GateMatrix,
    pub(crate) u_n: GateMatrix,
    pub(crate) b_n: Vec<f32>,
    pub(crate) hidden: usize,
    pub(crate) precision: RuntimePrecision,
    pub(crate) format: RuntimeFormat,
}

/// Reusable workspace for the compiled streaming loop.
///
/// One instance serves every layer of every frame of a stream: the gate
/// vectors and recurrent-SpMV temporaries live here and are resized on
/// use, so the steady state of [`super::CompiledNetwork::forward`] /
/// [`super::CompiledNetwork::forward_with`] allocates nothing but the
/// returned logits.
#[derive(Debug, Clone, Default)]
pub struct GruRuntimeScratch {
    /// Update gate.
    z: Vec<f32>,
    /// Reset gate.
    r: Vec<f32>,
    /// Candidate state.
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

    /// Sizes the per-gate buffers for a layer of width `hidden`.
    ///
    /// The batched step reuses the same workspace with
    /// `hidden = layer_width × lanes`: every buffer is a flat lane-major
    /// `[width × b]` plane, so sizing is the only difference.
    fn reserve(&mut self, hidden: usize) {
        self.z.resize(hidden, 0.0);
        self.r.resize(hidden, 0.0);
        self.n.resize(hidden, 0.0);
        self.rh.resize(hidden, 0.0);
        self.tmp.resize(hidden, 0.0);
    }
}

impl CompiledGruLayer {
    /// The storage precision this layer's gate kernels stream.
    pub fn precision(&self) -> RuntimePrecision {
        self.precision
    }

    /// The storage format this layer's gate kernels walk.
    pub fn format(&self) -> RuntimeFormat {
        self.format
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
        scratch.reserve(self.hidden);
        h_out.resize(self.hidden, 0.0);

        self.w_z
            .kernel()
            .spmv_prec_into(prec, x, &mut scratch.z)
            .expect("dims");
        self.u_z
            .kernel()
            .spmv_prec_into(prec, h_prev, &mut scratch.tmp)
            .expect("dims");
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.z);
        Vector::axpy(1.0, &self.b_z, &mut scratch.z);
        sigmoid_slice(&mut scratch.z);
        quantize(&mut scratch.z);

        self.w_r
            .kernel()
            .spmv_prec_into(prec, x, &mut scratch.r)
            .expect("dims");
        self.u_r
            .kernel()
            .spmv_prec_into(prec, h_prev, &mut scratch.tmp)
            .expect("dims");
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.r);
        Vector::axpy(1.0, &self.b_r, &mut scratch.r);
        sigmoid_slice(&mut scratch.r);
        quantize(&mut scratch.r);

        Vector::hadamard_into(&scratch.r, h_prev, &mut scratch.rh);
        self.w_n
            .kernel()
            .spmv_prec_into(prec, x, &mut scratch.n)
            .expect("dims");
        self.u_n
            .kernel()
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
    /// row to all `b` input columns via the reorder-aware parallel engine
    /// (§IV-B: row groups of one kernel go to parallel threads), so index
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
    /// `precision` is normally the layer's compiled
    /// [`precision`](CompiledGruLayer::precision); passing another value
    /// runs the gate kernels in that mode instead (the f32 weights are
    /// always present, and the f16/int8 sidecars ride along).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `xs` is not `[input × b]` or
    /// `hs_prev` is not `[hidden × b]` lane-major (nothing is dispatched
    /// for the failing kernel), and [`ExecError::WorkerPanicked`] if a
    /// kernel task panics. On error the scratch buffers and `hs_out` hold
    /// unspecified — but initialized — data.
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
        // Hardware rounding where the host has it; the reference step keeps
        // the software conversion, and the two agree on every `f32`.
        let quantize = |v: &mut [f32]| {
            if precision == RuntimePrecision::F16 {
                quantize_f16_slice(v);
            }
        };
        let prec = precision.storage();
        let hb = self.hidden * b;
        scratch.reserve(hb);
        hs_out.resize(hb, 0.0);
        let product = |gate: &GateMatrix, xs: &[f32], out: &mut [f32]| {
            if b == 1 {
                exec.spmv_into(gate.kernel(), prec, xs, out)
            } else {
                exec.spmm_into(gate.kernel(), prec, xs, b, out)
            }
        };

        product(&self.w_z, xs, &mut scratch.z)?;
        product(&self.u_z, hs_prev, &mut scratch.tmp)?;
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.z);
        rtm_tensor::simd::broadcast_add(&self.b_z, b, &mut scratch.z);
        sigmoid_slice(&mut scratch.z);
        quantize(&mut scratch.z);

        product(&self.w_r, xs, &mut scratch.r)?;
        product(&self.u_r, hs_prev, &mut scratch.tmp)?;
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.r);
        rtm_tensor::simd::broadcast_add(&self.b_r, b, &mut scratch.r);
        sigmoid_slice(&mut scratch.r);
        quantize(&mut scratch.r);

        Vector::hadamard_into(&scratch.r, hs_prev, &mut scratch.rh);
        product(&self.w_n, xs, &mut scratch.n)?;
        product(&self.u_n, &scratch.rh, &mut scratch.tmp)?;
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.n);
        rtm_tensor::simd::broadcast_add(&self.b_n, b, &mut scratch.n);
        tanh_slice(&mut scratch.n);
        quantize(&mut scratch.n);

        for (((hi, &zi), &ni), &hp) in hs_out
            .iter_mut()
            .zip(&scratch.z)
            .zip(&scratch.n)
            .zip(hs_prev)
        {
            *hi = (1.0 - zi) * ni + zi * hp;
        }
        quantize(hs_out);
        Ok(())
    }
}
