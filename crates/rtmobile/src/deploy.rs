//! The deployed runtime artifact: BSPC-compiled GRU inference.
//!
//! [`CompiledNetwork`] lowers a (pruned) [`GruNetwork`] into per-gate
//! [`BspcMatrix`] storage carrying the matrix-reorder permutation, then
//! *executes* inference through the sparse kernels. This is the functional
//! counterpart of the simulator's cost model: the simulator prices the
//! kernels, this module proves they compute the right thing. With
//! [`RuntimePrecision::F16`] all weights and intermediate activations round
//! through IEEE binary16, modelling the paper's 16-bit GPU datapath.

use crate::health::HealthPolicy;
use crate::serve::{AdmissionConfig, ServeStats, ShedPolicy, StreamFault};
use rtm_compiler::reorder::ReorderPlan;
use rtm_compiler::StorageFormat;
use rtm_exec::ExecError;
use rtm_rnn::GruNetwork;
use rtm_sparse::footprint::Footprint;
use rtm_sparse::io::DecodeError;
use rtm_sparse::{BbsMatrix, BspcMatrix, CsbMatrix, CsrMatrix, SparseKernel};
use rtm_tensor::activations::{sigmoid, sigmoid_slice, tanh, tanh_slice};
use rtm_tensor::f16::quantize_f16;
use rtm_tensor::{Matrix, Vector};
use std::collections::VecDeque;

/// Numeric mode of the compiled runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimePrecision {
    /// Full f32 (CPU path).
    #[default]
    F32,
    /// Round weights and activations through binary16 (GPU path); the gate
    /// kernels then stream the 2-byte stored form and accumulate in f32.
    F16,
    /// Symmetric int8 storage: gate weights keep their f32 values but the
    /// kernels stream the per-stripe-block int8 sidecar, quantize the
    /// activation vector per call, and accumulate in i32 (one dequantize
    /// at store).
    Int8,
}

impl RuntimePrecision {
    /// The sparse storage precision this runtime mode streams.
    pub fn storage(self) -> rtm_sparse::Precision {
        match self {
            RuntimePrecision::F32 => rtm_sparse::Precision::F32,
            RuntimePrecision::F16 => rtm_sparse::Precision::F16,
            RuntimePrecision::Int8 => rtm_sparse::Precision::Int8,
        }
    }

    /// Short lowercase label ("f32" / "f16" / "int8").
    pub fn tag(self) -> &'static str {
        self.storage().tag()
    }

    /// The runtime mode that streams `storage`
    /// ([`RuntimePrecision::storage`] inverse).
    pub fn from_storage(storage: rtm_sparse::Precision) -> RuntimePrecision {
        match storage {
            rtm_sparse::Precision::F32 => RuntimePrecision::F32,
            rtm_sparse::Precision::F16 => RuntimePrecision::F16,
            rtm_sparse::Precision::Int8 => RuntimePrecision::Int8,
        }
    }

    /// Parses the lowercase label back ([`RuntimePrecision::tag`] inverse).
    pub fn parse(s: &str) -> Option<RuntimePrecision> {
        match s {
            "f32" => Some(RuntimePrecision::F32),
            "f16" => Some(RuntimePrecision::F16),
            "int8" => Some(RuntimePrecision::Int8),
            _ => None,
        }
    }
}

/// Sparse storage format the compiled runtime's gate kernels walk.
///
/// The paper's BSPC is the default; the zoo adds the ESE-style CSR
/// baseline, bank-balanced BBS, and block-panel CSB so the tuner can pick
/// per layer (see [`CompiledNetwork::compile_with_formats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RuntimeFormat {
    /// Block-based structured pruning compact storage (the paper's format).
    #[default]
    Bspc,
    /// Compressed sparse row — the unstructured baseline with a per-nonzero
    /// index decode.
    Csr,
    /// Bank-balanced sparse: padded ELL with a uniform per-row slot budget,
    /// load-balanced by construction.
    Bbs,
    /// Compressed structured blocks: CSR over dense-ish block panels,
    /// suited to pattern-pruned weights.
    Csb,
}

impl RuntimeFormat {
    /// The compiler-plan storage format this runtime mode executes.
    pub fn storage(self) -> StorageFormat {
        match self {
            RuntimeFormat::Bspc => StorageFormat::Bspc,
            RuntimeFormat::Csr => StorageFormat::Csr,
            RuntimeFormat::Bbs => StorageFormat::Bbs,
            RuntimeFormat::Csb => StorageFormat::Csb,
        }
    }

    /// Short lowercase label ("bspc" / "csr" / "bbs" / "csb").
    pub fn tag(self) -> &'static str {
        match self {
            RuntimeFormat::Bspc => "bspc",
            RuntimeFormat::Csr => "csr",
            RuntimeFormat::Bbs => "bbs",
            RuntimeFormat::Csb => "csb",
        }
    }

    /// The runtime mode executing `storage`, if the runtime has kernels for
    /// it ([`RuntimeFormat::storage`] inverse; `Dense` has no sparse
    /// runtime and maps to `None`).
    pub fn from_storage(storage: StorageFormat) -> Option<RuntimeFormat> {
        match storage {
            StorageFormat::Bspc => Some(RuntimeFormat::Bspc),
            StorageFormat::Csr => Some(RuntimeFormat::Csr),
            StorageFormat::Bbs => Some(RuntimeFormat::Bbs),
            StorageFormat::Csb => Some(RuntimeFormat::Csb),
            StorageFormat::Dense => None,
        }
    }

    /// Parses the lowercase label back ([`RuntimeFormat::tag`] inverse).
    pub fn parse(s: &str) -> Option<RuntimeFormat> {
        match s {
            "bspc" => Some(RuntimeFormat::Bspc),
            "csr" => Some(RuntimeFormat::Csr),
            "bbs" => Some(RuntimeFormat::Bbs),
            "csb" => Some(RuntimeFormat::Csb),
            _ => None,
        }
    }
}

/// One compiled gate matrix in its selected storage format.
///
/// Every variant carries the same f32 values plus the f16/int8 sidecars;
/// the format decides the index structure the kernels walk. The serial,
/// pooled and batched entries of every variant share the bit-exactness
/// contract the executor tests pin down, so swapping the format never
/// changes a computed number at f32/f16 (int8 codes differ per format
/// because the scale granularity differs — per stripe-block, row block,
/// row, or block panel).
#[derive(Debug, Clone)]
pub enum GateMatrix {
    /// BSPC storage (may carry the matrix-reorder permutation).
    Bspc(BspcMatrix),
    /// CSR storage.
    Csr(CsrMatrix),
    /// Bank-balanced ELL storage.
    Bbs(BbsMatrix),
    /// Compressed-structured-block storage.
    Csb(CsbMatrix),
}

impl GateMatrix {
    /// The storage format of this gate.
    pub fn format(&self) -> RuntimeFormat {
        match self {
            GateMatrix::Bspc(_) => RuntimeFormat::Bspc,
            GateMatrix::Csr(_) => RuntimeFormat::Csr,
            GateMatrix::Bbs(_) => RuntimeFormat::Bbs,
            GateMatrix::Csb(_) => RuntimeFormat::Csb,
        }
    }

    /// The gate as the one kernel contract every execution path runs:
    /// serial steps call its [`SparseKernel`] entries, pooled and batched
    /// steps hand it to [`rtm_exec::Executor::spmv_into`] /
    /// [`spmm_into`](rtm_exec::Executor::spmm_into) — all bit-identical
    /// for every format, precision and thread count.
    pub fn kernel(&self) -> &dyn SparseKernel {
        match self {
            GateMatrix::Bspc(m) => m,
            GateMatrix::Csr(m) => m,
            GateMatrix::Bbs(m) => m,
            GateMatrix::Csb(m) => m,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.kernel().rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.kernel().cols()
    }

    /// The stored f32 values (layout is format-specific; used for
    /// load-time finiteness scans, not for indexing).
    pub fn values(&self) -> &[f32] {
        match self {
            GateMatrix::Bspc(m) => m.values(),
            GateMatrix::Csr(m) => m.values(),
            GateMatrix::Bbs(m) => m.values(),
            GateMatrix::Csb(m) => m.values(),
        }
    }

    /// Storage footprint at the given value precision.
    pub fn footprint(&self, prec: rtm_sparse::Precision) -> Footprint {
        match self {
            GateMatrix::Bspc(m) => Footprint::bspc(m, prec),
            GateMatrix::Csr(m) => Footprint::csr(m, prec),
            GateMatrix::Bbs(m) => Footprint::bbs(m, prec),
            GateMatrix::Csb(m) => Footprint::csb(m, prec),
        }
    }

    /// Serializes this gate in its format's wire codec (the format tag
    /// itself travels in the container, e.g. the `.rtm` layer header).
    pub fn write_to(&self, out: &mut Vec<u8>, prec: rtm_sparse::Precision) {
        match self {
            GateMatrix::Bspc(m) => m.write_to(out, prec),
            GateMatrix::Csr(m) => m.write_to(out, prec),
            GateMatrix::Bbs(m) => m.write_to(out, prec),
            GateMatrix::Csb(m) => m.write_to(out, prec),
        }
    }

    /// Decodes one gate of the given format from the front of `bytes`,
    /// returning it with the number of bytes consumed. Each codec checks
    /// its own magic, so a format byte pointing at the wrong blob fails
    /// with [`DecodeError::BadMagic`] instead of misparsing.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on any structural problem.
    pub fn read_from(
        bytes: &[u8],
        format: RuntimeFormat,
    ) -> Result<(GateMatrix, usize), DecodeError> {
        Ok(match format {
            RuntimeFormat::Bspc => {
                let (m, used) = BspcMatrix::read_from(bytes)?;
                (GateMatrix::Bspc(m), used)
            }
            RuntimeFormat::Csr => {
                let (m, used) = CsrMatrix::read_from(bytes)?;
                (GateMatrix::Csr(m), used)
            }
            RuntimeFormat::Bbs => {
                let (m, used) = BbsMatrix::read_from(bytes)?;
                (GateMatrix::Bbs(m), used)
            }
            RuntimeFormat::Csb => {
                let (m, used) = CsbMatrix::read_from(bytes)?;
                (GateMatrix::Csb(m), used)
            }
        })
    }
}

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

/// One tuner measurement riding along with a compiled model: the seconds
/// the compile-time kernel probe measured for the format × precision a
/// layer was deployed at (stored as microseconds). Persisting these in the
/// model file lets a serving-side load answer "what did the tuner see?"
/// without re-running the probe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerCost {
    /// Layer index the measurement belongs to.
    pub layer: usize,
    /// Storage format the probe timed.
    pub format: RuntimeFormat,
    /// Storage precision the probe timed.
    pub precision: RuntimePrecision,
    /// Measured per-step kernel cost in microseconds.
    pub micros: f32,
}

/// A GRU network compiled to sparse storage (BSPC by default; the format
/// zoo's CSR/BBS/CSB per layer when selected).
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    pub(crate) layers: Vec<CompiledGruLayer>,
    pub(crate) head_w: Matrix,
    pub(crate) head_b: Vec<f32>,
    pub(crate) precision: RuntimePrecision,
    pub(crate) format: RuntimeFormat,
    /// Tuner probe measurements (empty unless an Auto compile recorded
    /// them; see [`CompiledNetwork::with_tuner_costs`]).
    pub(crate) tuner_costs: Vec<TunerCost>,
}

/// Reusable workspace for the compiled streaming loop.
///
/// One instance serves every layer of every frame of a stream: the gate
/// vectors and recurrent-SpMV temporaries live here and are resized on
/// use, so the steady state of [`CompiledNetwork::forward`] /
/// [`CompiledNetwork::forward_with`] allocates nothing but the returned
/// logits.
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
    /// Recurrent-SpMV temp (serial path) / `U_n (r ⊙ h)` (both paths).
    tmp: Vec<f32>,
    /// `U_z h_prev` in the pooled phase A.
    tmp2: Vec<f32>,
    /// `U_r h_prev` in the pooled phase A.
    tmp3: Vec<f32>,
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
        self.tmp2.resize(hidden, 0.0);
        self.tmp3.resize(hidden, 0.0);
    }
}

impl CompiledNetwork {
    /// Compiles `net` with the given BSP partition and precision.
    ///
    /// Every gate matrix is converted to BSPC (with the matrix-reorder
    /// permutation attached per §IV-B-c) and, under
    /// [`RuntimePrecision::F16`], quantized through binary16 first.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`rtm_sparse::BspcError`] when the partition
    /// does not fit a tensor.
    pub fn compile(
        net: &GruNetwork,
        stripes: usize,
        blocks: usize,
        precision: RuntimePrecision,
    ) -> Result<CompiledNetwork, rtm_sparse::BspcError> {
        CompiledNetwork::compile_with_precisions(net, stripes, blocks, &[], precision)
    }

    /// [`CompiledNetwork::compile`] with a per-layer precision override:
    /// layer `i` compiles and runs at `per_layer[i]` (layers past the end
    /// of the slice use `default`). `default` also sets the network-level
    /// activation rounding and head precision. This is the deployment hook
    /// for the tuner's measured per-layer precision selection.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`rtm_sparse::BspcError`] when the partition
    /// does not fit a tensor.
    pub fn compile_with_precisions(
        net: &GruNetwork,
        stripes: usize,
        blocks: usize,
        per_layer: &[RuntimePrecision],
        default: RuntimePrecision,
    ) -> Result<CompiledNetwork, rtm_sparse::BspcError> {
        CompiledNetwork::compile_with_formats(
            net,
            stripes,
            blocks,
            per_layer,
            default,
            &[],
            RuntimeFormat::Bspc,
        )
    }

    /// [`CompiledNetwork::compile_with_precisions`] with a per-layer
    /// storage-format override on top: layer `i` compiles its six gates
    /// into `per_layer_format[i]` (layers past the end use
    /// `default_format`). The `(stripes, blocks)` partition maps onto each
    /// format the same way the compiler's profiler prices them: BSPC uses
    /// it directly, BBS takes `blocks` banks, CSB tiles `stripes × blocks`
    /// block panels, CSR ignores it. This is the deployment hook for the
    /// tuner's measured per-layer format selection.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`rtm_sparse::BspcError`] when the partition
    /// does not fit a tensor (a zero `stripes`/`blocks` is rejected for
    /// every format so the partition contract stays format-independent).
    pub fn compile_with_formats(
        net: &GruNetwork,
        stripes: usize,
        blocks: usize,
        per_layer: &[RuntimePrecision],
        default: RuntimePrecision,
        per_layer_format: &[RuntimeFormat],
        default_format: RuntimeFormat,
    ) -> Result<CompiledNetwork, rtm_sparse::BspcError> {
        if stripes == 0 || blocks == 0 {
            return Err(rtm_sparse::BspcError::ZeroPartition);
        }
        // What the stored weights look like per precision: f16 pre-rounds
        // (the 2-byte sidecar is then exact, so the f16 kernels match the
        // f32 kernels bit for bit on these values); int8 keeps the original
        // f32 values — the int8 sidecar derived from them is what the
        // kernels stream, and dequantizing here would round the codes twice.
        let quant = |m: &Matrix, precision: RuntimePrecision| -> Matrix {
            match precision {
                RuntimePrecision::F32 | RuntimePrecision::Int8 => m.clone(),
                RuntimePrecision::F16 => m.map(quantize_f16),
            }
        };
        let lower = |m: &Matrix,
                     precision: RuntimePrecision,
                     format: RuntimeFormat|
         -> Result<GateMatrix, rtm_sparse::BspcError> {
            let q = quant(m, precision);
            let (rows, cols) = (q.rows(), q.cols());
            Ok(match format {
                RuntimeFormat::Bspc => {
                    let s = stripes.min(rows.max(1));
                    let b = blocks.min(cols.max(1));
                    let reorder = ReorderPlan::compute(&q, 8);
                    let perm: Vec<u32> = reorder.perm.iter().map(|&r| r as u32).collect();
                    GateMatrix::Bspc(BspcMatrix::from_dense(&q, s, b)?.with_reorder(perm)?)
                }
                RuntimeFormat::Csr => GateMatrix::Csr(CsrMatrix::from_dense(&q)),
                // The clamps below mirror the compiler profile's pricing
                // geometry exactly, so the tuner's measured costs describe
                // the matrices actually deployed. Clamped geometry always
                // fits the shape, hence the expects.
                RuntimeFormat::Bbs => {
                    let banks = blocks.min(cols.max(1)).max(1);
                    GateMatrix::Bbs(
                        BbsMatrix::from_dense(&q, banks).expect("banks clamped to shape"),
                    )
                }
                RuntimeFormat::Csb => {
                    let bh = rows.div_ceil(stripes.min(rows.max(1)).max(1));
                    let bw = cols.div_ceil(blocks.min(cols.max(1)).max(1));
                    GateMatrix::Csb(
                        CsbMatrix::from_dense(&q, bh, bw).expect("blocks clamped to shape"),
                    )
                }
            })
        };

        let mut layers = Vec::with_capacity(net.layers.len());
        for (i, cell) in net.layers.iter().enumerate() {
            let precision = per_layer.get(i).copied().unwrap_or(default);
            let format = per_layer_format.get(i).copied().unwrap_or(default_format);
            layers.push(CompiledGruLayer {
                w_z: lower(&cell.w_z, precision, format)?,
                u_z: lower(&cell.u_z, precision, format)?,
                b_z: cell.b_z.clone(),
                w_r: lower(&cell.w_r, precision, format)?,
                u_r: lower(&cell.u_r, precision, format)?,
                b_r: cell.b_r.clone(),
                w_n: lower(&cell.w_n, precision, format)?,
                u_n: lower(&cell.u_n, precision, format)?,
                b_n: cell.b_n.clone(),
                hidden: cell.hidden_dim(),
                precision,
                format,
            });
        }
        // The head stays a dense f32 gemv; int8 models weight-only
        // per-tensor quantization there (the DESIGN.md §6 what-if).
        let head_w = match default {
            RuntimePrecision::F32 => net.head.w.clone(),
            RuntimePrecision::F16 => net.head.w.map(quantize_f16),
            RuntimePrecision::Int8 => {
                rtm_tensor::QuantizedMatrix::quantize(&net.head.w).dequantize()
            }
        };
        Ok(CompiledNetwork {
            layers,
            head_w,
            head_b: net.head.b.clone(),
            precision: default,
            format: default_format,
            tuner_costs: Vec::new(),
        })
    }

    /// Attaches tuner probe measurements to travel with the model (they
    /// serialize into the `.rtm` v4 cost section).
    pub fn with_tuner_costs(mut self, costs: Vec<TunerCost>) -> CompiledNetwork {
        self.tuner_costs = costs;
        self
    }

    /// Tuner probe measurements recorded at compile time (empty when the
    /// model was compiled with explicit, un-probed settings).
    pub fn tuner_costs(&self) -> &[TunerCost] {
        &self.tuner_costs
    }

    /// Input frame dimension the compiled model expects.
    pub fn input_dim(&self) -> usize {
        self.layers
            .first()
            .map(|l| l.w_z.cols())
            .unwrap_or_else(|| self.head_w.cols())
    }

    /// Number of output classes (logit rows per frame).
    pub fn num_classes(&self) -> usize {
        self.head_b.len()
    }

    /// The network-level numeric mode (per-layer overrides may differ; see
    /// [`CompiledNetwork::layer_precisions`]).
    pub fn precision(&self) -> RuntimePrecision {
        self.precision
    }

    /// The storage precision each compiled layer runs at, in layer order.
    pub fn layer_precisions(&self) -> Vec<RuntimePrecision> {
        self.layers.iter().map(|l| l.precision).collect()
    }

    /// The network-level storage format (per-layer overrides may differ;
    /// see [`CompiledNetwork::layer_formats`]).
    pub fn format(&self) -> RuntimeFormat {
        self.format
    }

    /// The storage format each compiled layer's gates walk, in layer order.
    pub fn layer_formats(&self) -> Vec<RuntimeFormat> {
        self.layers.iter().map(|l| l.format).collect()
    }

    /// The compiled GRU layers, in execution order.
    pub fn layers(&self) -> &[CompiledGruLayer] {
        &self.layers
    }

    /// Total bytes of the compiled weight storage (values + indices +
    /// quantization scale metadata) at each layer's runtime precision and
    /// format.
    pub fn storage_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| {
                [&l.w_z, &l.u_z, &l.w_r, &l.u_r, &l.w_n, &l.u_n]
                    .map(|m| m.footprint(l.precision.storage()).total())
            })
            .sum()
    }

    fn maybe_quantize(&self, v: &mut [f32]) {
        if self.precision == RuntimePrecision::F16 {
            for x in v {
                *x = quantize_f16(*x);
            }
        }
    }

    /// Runs inference over a frame sequence, returning per-frame logits.
    ///
    /// Streaming is zero-allocation in steady state: one
    /// [`GruRuntimeScratch`] plus double-buffered state/input vectors serve
    /// every frame; only the returned logit rows are freshly allocated.
    ///
    /// # Panics
    ///
    /// Panics if the frame dimension does not match the compiled model.
    pub fn forward(&self, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut states: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.hidden]).collect();
        let mut scratch = GruRuntimeScratch::new();
        let mut x: Vec<f32> = Vec::new();
        let mut h_next: Vec<f32> = Vec::new();
        let mut logits = Vec::with_capacity(frames.len());
        for frame in frames {
            x.clear();
            x.extend_from_slice(frame);
            self.maybe_quantize(&mut x);
            for (layer, h) in self.layers.iter().zip(states.iter_mut()) {
                layer.step_into(&x, h, &mut scratch, &mut h_next);
                std::mem::swap(h, &mut h_next);
                x.clear();
                x.extend_from_slice(h);
            }
            let mut out = rtm_tensor::gemm::gemv(&self.head_w, &x).expect("head dims");
            Vector::axpy(1.0, &self.head_b, &mut out);
            logits.push(out);
        }
        logits
    }

    /// Per-frame argmax predictions.
    pub fn predict(&self, frames: &[Vec<f32>]) -> Vec<usize> {
        self.forward(frames)
            .iter()
            .map(|l| Vector::argmax(l))
            .collect()
    }

    /// [`CompiledNetwork::forward`] with every gate SpMV dispatched through
    /// a parallel [`rtm_exec::Executor`]. Bit-identical to the serial
    /// forward for any thread count: pooled and serial steps run the same
    /// row-range kernel of each gate (see [`GateMatrix::kernel`]), so the
    /// per-gate accumulation order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the frame dimension does not match the compiled model.
    pub fn forward_with(&self, exec: &rtm_exec::Executor, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let mut states: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.hidden]).collect();
        let mut scratch = GruRuntimeScratch::new();
        let mut x: Vec<f32> = Vec::new();
        let mut h_next: Vec<f32> = Vec::new();
        let mut logits = Vec::with_capacity(frames.len());
        for frame in frames {
            x.clear();
            x.extend_from_slice(frame);
            self.maybe_quantize(&mut x);
            for (layer, h) in self.layers.iter().zip(states.iter_mut()) {
                layer.step_with_into(exec, &x, h, &mut scratch, &mut h_next);
                std::mem::swap(h, &mut h_next);
                x.clear();
                x.extend_from_slice(h);
            }
            let mut out = rtm_tensor::gemm::gemv(&self.head_w, &x).expect("head dims");
            Vector::axpy(1.0, &self.head_b, &mut out);
            logits.push(out);
        }
        logits
    }

    /// Per-frame argmax predictions through the parallel executor.
    pub fn predict_with(&self, exec: &rtm_exec::Executor, frames: &[Vec<f32>]) -> Vec<usize> {
        self.forward_with(exec, frames)
            .iter()
            .map(|l| Vector::argmax(l))
            .collect()
    }

    /// Runs the utterance through the parallel executor and decodes it with
    /// `choice`'s decoder ([`crate::config::DecoderChoice::build`] over
    /// this head's class count). The serial offline counterpart of the
    /// per-lane streaming decode in [`BatchedSession`]; both feed the same
    /// logits to the same decoder, so their hypotheses are bit-identical.
    pub fn decode_with(
        &self,
        exec: &rtm_exec::Executor,
        frames: &[Vec<f32>],
        choice: crate::config::DecoderChoice,
    ) -> rtm_speech::Hypothesis {
        let logits = self.forward_with(exec, frames);
        let mut decoder = choice.build(self.head_b.len());
        rtm_speech::decode_offline(decoder.as_mut(), &logits)
    }
}

/// A GRU layer compiled with gate fusion: one `3H × I` input kernel and
/// one `3H × H` recurrent kernel per step — the launch structure the
/// simulator's frame model (and the Figure 4 saturation) assumes.
#[derive(Debug, Clone)]
pub struct FusedGruLayer {
    wx: BspcMatrix,
    uh: BspcMatrix,
    biases: [Vec<f32>; 3],
    hidden: usize,
}

impl FusedGruLayer {
    /// Fuses a trained cell's gates (z, r, n order) into the two kernels.
    ///
    /// # Errors
    ///
    /// Returns [`rtm_sparse::BspcError`] if the partition does not fit the
    /// fused matrices.
    pub fn compile(
        cell: &rtm_rnn::gru::GruCell,
        stripes: usize,
        blocks: usize,
    ) -> Result<FusedGruLayer, rtm_sparse::BspcError> {
        use rtm_compiler::fusion::FusedMatrix;
        let wx_fused = FusedMatrix::stack(&[&cell.w_z, &cell.w_r, &cell.w_n])
            .expect("gates share the input width");
        let uh_fused = FusedMatrix::stack(&[&cell.u_z, &cell.u_r, &cell.u_n])
            .expect("gates share the hidden width");
        let s = |m: &Matrix| stripes.min(m.rows().max(1));
        let b = |m: &Matrix| blocks.min(m.cols().max(1));
        Ok(FusedGruLayer {
            wx: BspcMatrix::from_dense(&wx_fused.matrix, s(&wx_fused.matrix), b(&wx_fused.matrix))?,
            uh: BspcMatrix::from_dense(&uh_fused.matrix, s(&uh_fused.matrix), b(&uh_fused.matrix))?,
            biases: [cell.b_z.clone(), cell.b_r.clone(), cell.b_n.clone()],
            hidden: cell.hidden_dim(),
        })
    }

    /// One GRU step through the fused kernels.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn step(&self, x: &[f32], h_prev: &[f32]) -> Vec<f32> {
        let hid = self.hidden;
        // Kernel 1: all input-side gate pre-activations at once.
        let wx_out = self.wx.spmv(x).expect("input dims");
        // Kernel 2: all recurrent pre-activations on h (z and r use these;
        // the candidate's recurrent part needs r ⊙ h, computed below).
        let uh_out = self.uh.spmv(h_prev).expect("hidden dims");

        let mut z = vec![0.0f32; hid];
        let mut r = vec![0.0f32; hid];
        for i in 0..hid {
            z[i] = sigmoid(wx_out[i] + uh_out[i] + self.biases[0][i]);
            r[i] = sigmoid(wx_out[hid + i] + uh_out[hid + i] + self.biases[1][i]);
        }
        let rh: Vec<f32> = r.iter().zip(h_prev).map(|(&a, &b)| a * b).collect();
        let uh_rh = self.uh.spmv(&rh).expect("hidden dims");
        let mut h = vec![0.0f32; hid];
        for i in 0..hid {
            let n = tanh(wx_out[2 * hid + i] + uh_rh[2 * hid + i] + self.biases[2][i]);
            h[i] = (1.0 - z[i]) * n + z[i] * h_prev[i];
        }
        h
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

    /// One serial GRU step, allocation-free: gates and temporaries live in
    /// `scratch`, the fresh state lands in `h_out` (resized on entry). Every
    /// gate SpMV streams the layer's compiled storage precision.
    fn step_into(
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

    /// One step with the five `h_prev`-independent gate SpMVs (`W_z x`,
    /// `U_z h`, `W_r x`, `U_r h`, `W_n x`) dispatched as parallel pool
    /// tasks, and the reset-gated candidate recurrence `U_n (r ⊙ h)` as a
    /// row-parallel SpMV once `r` is known. All six run the gate's one
    /// row-range kernel — whole-range inside a task, chunked for `U_n` —
    /// and the combination order per gate matches
    /// [`CompiledGruLayer::step_into`] exactly, so the output is
    /// bit-identical to the serial step for any thread count. Gates and
    /// temporaries live in `scratch` and the kernels allocate nothing, but
    /// unlike the serial form the step is not allocation-free: it boxes the
    /// five phase-A tasks (and `U_n`'s chunk tasks when `threads > 1`).
    fn step_with_into(
        &self,
        exec: &rtm_exec::Executor,
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

        // Phase A: everything that only needs x and h_prev. The gate input
        // terms land in z/r/n, the recurrent terms in tmp2/tmp3. Each task
        // runs the serial precision entry — int8 activations are quantized
        // per task (into the running thread's scratch), but that is a
        // deterministic pure function of the input vector, so the codes
        // match the serial step's exactly.
        {
            let spmv = |m: &GateMatrix, v: &[f32], out: &mut [f32]| {
                m.kernel().spmv_prec_into(prec, v, out).expect("dims");
            };
            let wzx = &mut scratch.z;
            let uzh = &mut scratch.tmp2;
            let wrx = &mut scratch.r;
            let urh = &mut scratch.tmp3;
            let wnx = &mut scratch.n;
            exec.run(vec![
                Box::new(move || spmv(&self.w_z, x, wzx)),
                Box::new(move || spmv(&self.u_z, h_prev, uzh)),
                Box::new(move || spmv(&self.w_r, x, wrx)),
                Box::new(move || spmv(&self.u_r, h_prev, urh)),
                Box::new(move || spmv(&self.w_n, x, wnx)),
            ])
            .expect("gate task panicked");
        }

        Vector::axpy(1.0, &scratch.tmp2, &mut scratch.z);
        Vector::axpy(1.0, &self.b_z, &mut scratch.z);
        sigmoid_slice(&mut scratch.z);
        quantize(&mut scratch.z);

        Vector::axpy(1.0, &scratch.tmp3, &mut scratch.r);
        Vector::axpy(1.0, &self.b_r, &mut scratch.r);
        sigmoid_slice(&mut scratch.r);
        quantize(&mut scratch.r);

        // Phase B: the candidate recurrence, row-parallel across the pool.
        Vector::hadamard_into(&scratch.r, h_prev, &mut scratch.rh);
        exec.spmv_into(self.u_n.kernel(), prec, &scratch.rh, &mut scratch.tmp)
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

    /// One GRU step for `b` independent streams through a single pass over
    /// the gate weights (weight-stationary batching). `xs`, `hs_prev` and
    /// `hs_out` are lane-major: element `i` of stream `j` at `i·b + j`.
    ///
    /// Each gate SpMM walks its BSPC index structure once and applies every
    /// row to all `b` input columns via the reorder-aware parallel engine,
    /// so index decode and weight traffic amortize across the batch.
    /// Lane `j` of the output is bit-identical to the serial step of
    /// [`CompiledNetwork::forward`] on lane `j`'s column, for every
    /// thread count and simd policy: the SpMM kernels replay the serial
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
        let quantize = |v: &mut [f32]| {
            if precision == RuntimePrecision::F16 {
                for e in v.iter_mut() {
                    *e = quantize_f16(*e);
                }
            }
        };
        let prec = precision.storage();
        let hb = self.hidden * b;
        scratch.reserve(hb);
        hs_out.resize(hb, 0.0);

        exec.spmm_into(self.w_z.kernel(), prec, xs, b, &mut scratch.z)?;
        exec.spmm_into(self.u_z.kernel(), prec, hs_prev, b, &mut scratch.tmp)?;
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.z);
        rtm_tensor::simd::broadcast_add(&self.b_z, b, &mut scratch.z);
        sigmoid_slice(&mut scratch.z);
        quantize(&mut scratch.z);

        exec.spmm_into(self.w_r.kernel(), prec, xs, b, &mut scratch.r)?;
        exec.spmm_into(self.u_r.kernel(), prec, hs_prev, b, &mut scratch.tmp)?;
        Vector::axpy(1.0, &scratch.tmp, &mut scratch.r);
        rtm_tensor::simd::broadcast_add(&self.b_r, b, &mut scratch.r);
        sigmoid_slice(&mut scratch.r);
        quantize(&mut scratch.r);

        Vector::hadamard_into(&scratch.r, hs_prev, &mut scratch.rh);
        exec.spmm_into(self.w_n.kernel(), prec, xs, b, &mut scratch.n)?;
        exec.spmm_into(self.u_n.kernel(), prec, &scratch.rh, b, &mut scratch.tmp)?;
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

impl CompiledNetwork {
    /// One batched frame through all layers and the head: `xs` holds `b`
    /// input frames lane-major and is consumed as the inter-layer activation
    /// buffer; `logits` receives the `[classes × b]` lane-major head output.
    /// Lane `j` is bit-identical to one frame of
    /// [`CompiledNetwork::forward`] on stream `j`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when `xs` or a `states` plane is not
    /// lane-major `[dim × b]` for this network, and
    /// [`ExecError::WorkerPanicked`] if a kernel task panics. On error the
    /// activation buffers hold unspecified — but initialized — data.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_frame_batch(
        &self,
        exec: &rtm_exec::Executor,
        xs: &mut Vec<f32>,
        b: usize,
        states: &mut [Vec<f32>],
        scratch: &mut GruRuntimeScratch,
        hs_next: &mut Vec<f32>,
        logits: &mut Vec<f32>,
    ) -> Result<(), ExecError> {
        self.maybe_quantize(xs);
        for (layer, hs) in self.layers.iter().zip(states.iter_mut()) {
            layer.step_batch_into(exec, xs, hs, b, layer.precision, scratch, hs_next)?;
            std::mem::swap(hs, hs_next);
            xs.clear();
            xs.extend_from_slice(hs);
        }
        logits.resize(self.head_b.len() * b, 0.0);
        rtm_tensor::gemm::gemv_batch_into(&self.head_w, xs, b, logits)?;
        rtm_tensor::simd::broadcast_add(&self.head_b, b, logits);
        Ok(())
    }
}

/// Removes lane `j` from a lane-major `[rows × b]` buffer in place,
/// shifting lanes above `j` down by one (the compaction a stream
/// retirement triggers). Pure data movement — surviving lanes keep their
/// exact bit patterns.
fn remove_lane(buf: &mut Vec<f32>, b: usize, j: usize) {
    debug_assert!(j < b && buf.len().is_multiple_of(b));
    let rows = buf.len() / b;
    let mut w = 0;
    for i in 0..rows {
        for l in 0..b {
            if l != j {
                buf[w] = buf[i * b + l];
                w += 1;
            }
        }
    }
    buf.truncate(w);
}

/// Appends a zero-initialized lane to a lane-major `[rows × b]` buffer in
/// place (admission of a fresh stream, whose hidden state starts at zero).
fn add_lane(buf: &mut Vec<f32>, b: usize, rows: usize) {
    debug_assert!(buf.len() == rows * b);
    buf.resize(rows * (b + 1), 0.0);
    for i in (0..rows).rev() {
        buf[i * (b + 1) + b] = 0.0;
        for l in (0..b).rev() {
            buf[i * (b + 1) + l] = buf[i * b + l];
        }
    }
}

/// A multi-stream inference session: up to `capacity` utterances advance
/// in lockstep through one weight-stationary batched pass per frame.
///
/// Scheduling policy: waiting streams park in arrival order; a stream is
/// admitted to a free lane whenever one exists, runs one frame per batched
/// step, and retires when its frames are exhausted. Retirement compacts
/// the lane-major state buffers (surviving lanes shift down, preserving
/// their bit patterns) so the batch never carries dead lanes, and the
/// freed lane is immediately re-admittable — streams of different lengths
/// therefore keep the batch full until the tail drains.
///
/// Lane contract: every stream's logits are bit-identical to a serial
/// [`CompiledNetwork::forward`] of that stream alone, for any capacity,
/// admission order, thread count and simd policy. The fault paths preserve
/// it: quarantining lane `j` is pure data movement on the other lanes, and
/// shedding removes a stream before it ever touches a lane.
///
/// Fault behaviour (DESIGN.md §10): with a scanning [`HealthPolicy`] the
/// session checks every layer's states and the logits after each batched
/// step; a faulty lane is recorded (`Check`) or retired (`Quarantine`)
/// while the other lanes continue untouched. With a bounded
/// [`AdmissionConfig`] the parked backlog is capped and the excess shed
/// under the configured [`ShedPolicy`]; every decision lands in
/// [`ServeStats`].
pub struct BatchedSession<'a> {
    net: std::sync::Arc<CompiledNetwork>,
    exec: &'a rtm_exec::Executor,
    capacity: usize,
    health: HealthPolicy,
    admission: AdmissionConfig,
    stats: ServeStats,
    /// Counter values already flushed to the trace registry (so repeated
    /// [`BatchedSession::trace_flush`] calls add each delta exactly once).
    trace_flushed: ServeStats,
    faults: Vec<StreamFault>,
    /// Configured utterance decoder; `None` serves logits only (the
    /// pre-decoder behaviour, zero decode overhead).
    decoder: Option<crate::config::DecoderChoice>,
    /// `token -> live decoder state` for lanes admitted while a decoder is
    /// configured. Token-keyed, so lane compaction never touches it.
    decoders: std::collections::BTreeMap<usize, Box<dyn rtm_speech::Decoder + Send>>,
    /// Final hypotheses collected by [`BatchedSession::run`] at stream
    /// completion, keyed by stream index.
    run_hyps: Vec<(usize, rtm_speech::Hypothesis)>,
    /// `lane -> caller token` (the stream index in [`BatchedSession::run`],
    /// a connection id under the incremental API).
    lanes: Vec<usize>,
    /// `lane -> frames served so far` (the next frame cursor).
    cursors: Vec<usize>,
    /// Per-layer lane-major hidden states `[hidden × lanes.len()]`.
    states: Vec<Vec<f32>>,
    /// Per-layer gathered sub-batch states for steps where only a subset
    /// of lanes has a frame ready.
    sub_states: Vec<Vec<f32>>,
    scratch: GruRuntimeScratch,
    xs: Vec<f32>,
    hs_next: Vec<f32>,
    logits: Vec<f32>,
}

/// What one incremental [`BatchedSession::step`] produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepOutput {
    /// `(token, logit row)` for every frame served this step, in the order
    /// the frames were passed. A quarantined token's faulty frame yields no
    /// row.
    pub logits: Vec<(usize, Vec<f32>)>,
    /// Tokens whose lanes the health policy retired this step (their
    /// state is gone; do not step them again).
    pub quarantined: Vec<usize>,
    /// Partial hypotheses the per-lane decoders emitted this step (empty
    /// unless [`BatchedSession::with_decoder`] configured one): a lane
    /// appears here only when its partial decode changed — new symbols or
    /// an endpoint transition.
    pub hypotheses: Vec<(usize, rtm_speech::Hypothesis)>,
}

impl<'a> BatchedSession<'a> {
    /// A session over `net` with at most `capacity` concurrent lanes.
    ///
    /// Clones the network into a private [`Arc`](std::sync::Arc); when the
    /// caller already holds the network under an `Arc` (the hot-swap path
    /// of `rtm serve`), use [`BatchedSession::shared`] to share it without
    /// copying weights.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(
        net: &CompiledNetwork,
        exec: &'a rtm_exec::Executor,
        capacity: usize,
    ) -> BatchedSession<'a> {
        BatchedSession::shared(std::sync::Arc::new(net.clone()), exec, capacity)
    }

    /// [`BatchedSession::new`] over an already-shared network: the session
    /// holds a reference-counted handle, so many sessions (and a reloader
    /// holding the next generation) can coexist without weight copies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn shared(
        net: std::sync::Arc<CompiledNetwork>,
        exec: &'a rtm_exec::Executor,
        capacity: usize,
    ) -> BatchedSession<'a> {
        assert!(capacity > 0, "batch capacity must be at least 1");
        let layer_count = net.layers.len();
        BatchedSession {
            net,
            exec,
            capacity,
            health: HealthPolicy::Off,
            admission: AdmissionConfig::default(),
            stats: ServeStats::default(),
            trace_flushed: ServeStats::default(),
            faults: Vec::new(),
            decoder: None,
            decoders: std::collections::BTreeMap::new(),
            run_hyps: Vec::new(),
            lanes: Vec::with_capacity(capacity),
            cursors: Vec::with_capacity(capacity),
            states: (0..layer_count).map(|_| Vec::new()).collect(),
            sub_states: (0..layer_count).map(|_| Vec::new()).collect(),
            scratch: GruRuntimeScratch::new(),
            xs: Vec::new(),
            hs_next: Vec::new(),
            logits: Vec::new(),
        }
    }

    /// The lane capacity this session batches up to.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sets the numerical-health policy for subsequent runs.
    pub fn with_health(mut self, health: HealthPolicy) -> BatchedSession<'a> {
        self.health = health;
        self
    }

    /// Sets the admission-control bounds for subsequent runs.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> BatchedSession<'a> {
        self.admission = admission;
        self
    }

    /// The admission-control bounds in force.
    pub fn admission(&self) -> AdmissionConfig {
        self.admission
    }

    /// Attaches a per-lane utterance decoder: every lane admitted from now
    /// on gets its own decoder of this kind, fed each logits row the lane
    /// produces. Partial hypotheses surface in [`StepOutput::hypotheses`];
    /// final ones via [`BatchedSession::finish_decode`] (or
    /// [`BatchedSession::run_decoded`] offline). Decoding never perturbs
    /// the logits — the per-lane bit-identity contract is unchanged.
    pub fn with_decoder(mut self, decoder: crate::config::DecoderChoice) -> BatchedSession<'a> {
        self.decoder = Some(decoder);
        self
    }

    /// The configured decoder choice, if any.
    pub fn decoder(&self) -> Option<crate::config::DecoderChoice> {
        self.decoder
    }

    /// Serving counters of the most recent [`BatchedSession::run`].
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Numeric faults the health scan attributed during the most recent
    /// [`BatchedSession::run`] (empty under [`HealthPolicy::Off`]).
    pub fn faults(&self) -> &[StreamFault] {
        &self.faults
    }

    /// Lanes currently in flight.
    pub fn active_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Whether every lane is taken.
    pub fn is_full(&self) -> bool {
        self.lanes.len() >= self.capacity
    }

    /// The tokens currently holding lanes, in lane order.
    pub fn tokens(&self) -> &[usize] {
        &self.lanes
    }

    /// Frames served so far for `token`'s lane, `None` if it holds none.
    pub fn frames_served(&self, token: usize) -> Option<usize> {
        self.lane_of(token).map(|j| self.cursors[j])
    }

    fn lane_of(&self, token: usize) -> Option<usize> {
        self.lanes.iter().position(|&t| t == token)
    }

    /// Admits `token` into a free lane with zero hidden state. Returns
    /// `false` (and changes nothing) when the session is full. Counts into
    /// [`ServeStats::admitted`].
    ///
    /// # Panics
    ///
    /// Panics if `token` already holds a lane — tokens address lanes, so a
    /// duplicate would make [`BatchedSession::step`] ambiguous.
    pub fn admit(&mut self, token: usize) -> bool {
        if self.is_full() {
            return false;
        }
        assert!(
            self.lane_of(token).is_none(),
            "token {token} already holds a lane"
        );
        let b = self.lanes.len();
        for (state, layer) in self.states.iter_mut().zip(&self.net.layers) {
            add_lane(state, b, layer.hidden);
        }
        self.lanes.push(token);
        self.cursors.push(0);
        self.stats.admitted += 1;
        if let Some(choice) = self.decoder {
            self.decoders
                .insert(token, choice.build(self.net.head_b.len()));
        }
        true
    }

    /// Finalizes and removes `token`'s lane decoder, returning its final
    /// hypothesis. `None` when the token has no live decoder (no decoder
    /// configured, never admitted, quarantined, or already finalized).
    /// Call after [`BatchedSession::retire`] when the stream ends cleanly;
    /// for an aborted stream, call and discard to free the state.
    pub fn finish_decode(&mut self, token: usize) -> Option<rtm_speech::Hypothesis> {
        self.decoders.remove(&token).map(|mut d| d.finish())
    }

    /// Retires `token`'s lane, compacting the state planes (pure data
    /// movement — the other lanes keep their bit patterns). Returns whether
    /// the token held a lane. Completion is the caller's call: pair with
    /// [`BatchedSession::mark_completed`] when the stream finished cleanly.
    pub fn retire(&mut self, token: usize) -> bool {
        let Some(j) = self.lane_of(token) else {
            return false;
        };
        let nb = self.lanes.len();
        for state in &mut self.states {
            remove_lane(state, nb, j);
        }
        self.lanes.remove(j);
        self.cursors.remove(j);
        true
    }

    /// Retires every lane at once (shutdown), returning the evicted tokens
    /// in lane order.
    pub fn drain(&mut self) -> Vec<usize> {
        for s in &mut self.states {
            s.clear();
        }
        self.cursors.clear();
        self.decoders.clear();
        std::mem::take(&mut self.lanes)
    }

    /// Counts a cleanly finished stream into [`ServeStats::completed`].
    pub fn mark_completed(&mut self) {
        self.stats.completed += 1;
    }

    /// Counts a stream shed at admission into [`ServeStats::shed`].
    pub fn mark_shed(&mut self) {
        self.stats.shed += 1;
    }

    /// Counts a stream admitted past its deadline budget into
    /// [`ServeStats::deadline_missed`].
    pub fn mark_deadline_missed(&mut self) {
        self.stats.deadline_missed += 1;
    }

    /// Advances the given lanes one frame each through a single batched
    /// weight pass. `frames` pairs each token with its next input frame —
    /// pass only the lanes that have one ready (a continuous-batching
    /// scheduler calls this with whatever arrived since the last tick;
    /// lanes left out simply keep their state). Admission order, subset
    /// choice and capacity never change a served lane's numbers: each
    /// lane's logits stay bit-identical to a serial
    /// [`CompiledNetwork::forward`] of that stream alone, because the
    /// batched kernels honour the per-lane contract at any width and the
    /// gather/scatter between the resident planes and the stepped sub-batch
    /// is pure data movement.
    ///
    /// Under a scanning [`HealthPolicy`] the stepped lanes' states and
    /// logits are checked; `Quarantine` retires a faulty lane on the spot
    /// (reported in [`StepOutput::quarantined`], counted in
    /// [`ServeStats::quarantined`], recorded in [`BatchedSession::faults`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when a frame's width disagrees with the
    /// model and [`ExecError::WorkerPanicked`] if a kernel task panics; the
    /// lanes' states are unspecified afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a token holds no lane or appears twice in `frames`.
    pub fn step(&mut self, frames: &[(usize, &[f32])]) -> Result<StepOutput, ExecError> {
        let mut out = StepOutput::default();
        let r = frames.len();
        if r == 0 {
            return Ok(out);
        }
        let b = self.lanes.len();
        let classes = self.net.head_b.len();
        let lane_of: Vec<usize> = frames
            .iter()
            .map(|&(token, _)| self.lane_of(token).expect("token holds no lane"))
            .collect();
        // The all-lanes-in-order case (every lockstep caller, and any tick
        // where all streams kept up) steps the resident planes directly;
        // a proper subset steps through gathered sub-batch planes.
        let aligned = r == b && lane_of.iter().enumerate().all(|(jj, &j)| jj == j);
        if !aligned {
            let mut seen = vec![false; b];
            for &j in &lane_of {
                assert!(!seen[j], "token {} stepped twice", self.lanes[j]);
                seen[j] = true;
            }
            for (plane, sub) in self.states.iter().zip(self.sub_states.iter_mut()) {
                let rows = plane.len() / b;
                sub.clear();
                sub.resize(rows * r, 0.0);
                for i in 0..rows {
                    for (jj, &j) in lane_of.iter().enumerate() {
                        sub[i * r + jj] = plane[i * b + j];
                    }
                }
            }
        }
        // Gather this step's frames lane-major.
        let input_dim = frames[0].1.len();
        self.xs.clear();
        self.xs.resize(input_dim * r, 0.0);
        for (jj, &(_, frame)) in frames.iter().enumerate() {
            if frame.len() != input_dim {
                return Err(ExecError::Shape(rtm_tensor::ShapeError {
                    op: "batched step frame",
                    lhs: (input_dim, 1),
                    rhs: (frame.len(), 1),
                }));
            }
            for (i, &v) in frame.iter().enumerate() {
                self.xs[i * r + jj] = v;
            }
        }
        // One weight pass carries the ready lanes one frame forward.
        let trace = rtm_trace::enabled();
        let t0 = std::time::Instant::now();
        let net = std::sync::Arc::clone(&self.net);
        let stepped = if aligned {
            &mut self.states
        } else {
            &mut self.sub_states
        };
        net.forward_frame_batch(
            self.exec,
            &mut self.xs,
            r,
            stepped,
            &mut self.scratch,
            &mut self.hs_next,
            &mut self.logits,
        )?;
        let step_elapsed = t0.elapsed();
        self.stats.compute_ns += step_elapsed.as_nanos() as u64;
        if trace {
            rtm_trace::global().hist_record(
                rtm_trace::key::SERVE_FRAME_US,
                step_elapsed.as_secs_f64() * 1e6,
            );
        }
        self.stats.frames += 1;
        if !aligned {
            // Scatter the advanced states back into the resident planes.
            for (plane, sub) in self.states.iter_mut().zip(&self.sub_states) {
                let rows = plane.len() / b;
                for i in 0..rows {
                    for (jj, &j) in lane_of.iter().enumerate() {
                        plane[i * b + j] = sub[i * r + jj];
                    }
                }
            }
        }
        // Health scan over the stepped lanes' planes and logits. Lanes are
        // arithmetically independent, so a fault in one implies nothing
        // about the others — only faulty lanes are condemned.
        let mut condemned = vec![false; r];
        if self.health.scans() {
            let stepped: &[Vec<f32>] = if aligned {
                &self.states
            } else {
                &self.sub_states
            };
            for (jj, lane_condemned) in condemned.iter_mut().enumerate() {
                let fault = stepped
                    .iter()
                    .find_map(|plane| crate::health::scan_lane(plane, r, jj))
                    .or_else(|| crate::health::scan_lane(&self.logits, r, jj));
                if let Some(fault) = fault {
                    self.faults.push(StreamFault {
                        stream: frames[jj].0,
                        frame: self.cursors[lane_of[jj]],
                        fault,
                    });
                    if self.health == HealthPolicy::Quarantine {
                        *lane_condemned = true;
                        self.stats.quarantined += 1;
                    }
                }
            }
        }
        // Scatter logits per token and advance cursors; a condemned lane's
        // faulty frame produces no logits.
        for (jj, &(token, _)) in frames.iter().enumerate() {
            if condemned[jj] {
                out.quarantined.push(token);
                continue;
            }
            let row: Vec<f32> = (0..classes).map(|k| self.logits[k * r + jj]).collect();
            if let Some(dec) = self.decoders.get_mut(&token) {
                if let Some(hyp) = dec.push_frame(&row) {
                    if hyp.endpoint {
                        self.stats.endpoints += 1;
                    }
                    out.hypotheses.push((token, hyp));
                }
            }
            out.logits.push((token, row));
            self.cursors[lane_of[jj]] += 1;
            self.stats.stream_frames += 1;
        }
        for &token in &out.quarantined {
            self.retire(token);
            // A quarantined stream is dead; its partial decode goes too.
            self.decoders.remove(&token);
        }
        Ok(out)
    }

    /// Adds the counter deltas accumulated since the last flush to the
    /// process trace registry (no-op while tracing is off). Counters
    /// accumulate across runs in the registry even though
    /// [`BatchedSession::stats`] resets per run, so each delta is added
    /// exactly once. [`BatchedSession::run`] flushes automatically; callers
    /// of the incremental API flush at their own cadence.
    pub fn trace_flush(&mut self) {
        if !rtm_trace::enabled() {
            return;
        }
        let (s, f) = (self.stats, self.trace_flushed);
        rtm_trace::global().counter_add_many(&[
            (
                rtm_trace::key::SERVE_ADMITTED,
                (s.admitted - f.admitted) as u64,
            ),
            (rtm_trace::key::SERVE_SHED, (s.shed - f.shed) as u64),
            (
                rtm_trace::key::SERVE_QUARANTINED,
                (s.quarantined - f.quarantined) as u64,
            ),
            (
                rtm_trace::key::SERVE_DEADLINE_MISSED,
                (s.deadline_missed - f.deadline_missed) as u64,
            ),
        ]);
        self.trace_flushed = s;
    }

    /// Runs every stream to completion, batching up to `capacity` of them
    /// per step, and returns per-stream per-frame logits in input order.
    /// Empty streams yield empty logit lists, as do streams shed by
    /// admission control; a quarantined stream's logits stop at its last
    /// healthy frame. Counters land in [`BatchedSession::stats`], observed
    /// faults in [`BatchedSession::faults`].
    ///
    /// This is the offline lockstep replay of the incremental API: every
    /// stream arrives at once, every admitted lane has a frame ready at
    /// every step.
    pub fn run<S: AsRef<[Vec<f32>]>>(&mut self, streams: &[S]) -> Vec<Vec<Vec<f32>>> {
        let mut out: Vec<Vec<Vec<f32>>> = streams
            .iter()
            .map(|s| Vec::with_capacity(s.as_ref().len()))
            .collect();
        self.drain();
        self.stats = ServeStats::default();
        self.trace_flushed = ServeStats::default();
        self.faults.clear();
        self.run_hyps.clear();
        // Every (non-empty) stream arrives at once in this offline replay;
        // the parked backlog holds them in input order until a lane frees.
        let mut parked: VecDeque<usize> = (0..streams.len())
            .filter(|&i| !streams[i].as_ref().is_empty())
            .collect();
        let mut step = 0usize;
        // Resolve the trace switch once — this is the serving hot loop.
        let trace = rtm_trace::enabled();
        loop {
            // Admit parked streams into free lanes (oldest first).
            while !self.is_full() {
                let Some(next) = parked.pop_front() else {
                    break;
                };
                self.admit(next);
                if self.admission.deadline_steps.is_some_and(|d| step > d) {
                    self.mark_deadline_missed();
                }
            }
            // Overload shedding: cap the backlog that survived admission.
            while parked.len() > self.admission.queue_depth {
                let victim = match self.admission.shed {
                    ShedPolicy::RejectNew => parked.pop_back(),
                    ShedPolicy::DropOldest => parked.pop_front(),
                };
                debug_assert!(victim.is_some());
                self.mark_shed();
            }
            if trace {
                rtm_trace::global()
                    .gauge_set(rtm_trace::key::SERVE_QUEUE_DEPTH, parked.len() as f64);
            }
            if self.lanes.is_empty() {
                break;
            }
            // Every lane has a frame ready in lockstep replay.
            let ready: Vec<(usize, &[f32])> = self
                .lanes
                .iter()
                .zip(&self.cursors)
                .map(|(&s, &c)| (s, streams[s].as_ref()[c].as_slice()))
                .collect();
            let served = match self.step(&ready) {
                Ok(served) => served,
                Err(ExecError::Shape(e)) => panic!("frame dim mismatch across streams: {e}"),
                Err(e) => panic!("batched step failed: {e:?}"),
            };
            for (s, row) in served.logits {
                out[s].push(row);
            }
            // Retire exhausted streams (quarantined lanes already left).
            for j in (0..self.lanes.len()).rev() {
                if self.cursors[j] == streams[self.lanes[j]].as_ref().len() {
                    let token = self.lanes[j];
                    self.retire(token);
                    if let Some(hyp) = self.finish_decode(token) {
                        self.run_hyps.push((token, hyp));
                    }
                    self.mark_completed();
                }
            }
            step += 1;
        }
        self.trace_flush();
        out
    }

    /// [`BatchedSession::run`] followed by per-frame argmax per stream.
    pub fn predict<S: AsRef<[Vec<f32>]>>(&mut self, streams: &[S]) -> Vec<Vec<usize>> {
        self.run(streams)
            .iter()
            .map(|logits| logits.iter().map(|l| Vector::argmax(l)).collect())
            .collect()
    }

    /// [`BatchedSession::run`], also collecting each stream's final
    /// hypothesis from its lane decoder. A stream that was empty, shed by
    /// admission control, or quarantined yields `None`. The hypotheses are
    /// streamed frame-by-frame through the lane decoders, so they are
    /// bit-identical to an offline [`rtm_speech::decode_offline`] over the
    /// returned logits.
    ///
    /// # Panics
    ///
    /// Panics if no decoder is configured
    /// ([`BatchedSession::with_decoder`]).
    #[allow(clippy::type_complexity)]
    pub fn run_decoded<S: AsRef<[Vec<f32>]>>(
        &mut self,
        streams: &[S],
    ) -> (Vec<Vec<Vec<f32>>>, Vec<Option<rtm_speech::Hypothesis>>) {
        assert!(
            self.decoder.is_some(),
            "no decoder configured; call with_decoder first"
        );
        let logits = self.run(streams);
        let mut hyps: Vec<Option<rtm_speech::Hypothesis>> =
            (0..streams.len()).map(|_| None).collect();
        for (s, h) in self.run_hyps.drain(..) {
            hyps[s] = Some(h);
        }
        (logits, hyps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_rnn::model::NetworkConfig;

    fn net() -> GruNetwork {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 6,
                hidden_dims: vec![12, 12],
                num_classes: 4,
            },
            17,
        )
    }

    fn frames() -> Vec<Vec<f32>> {
        (0..9)
            .map(|t| {
                (0..6)
                    .map(|i| ((t * 6 + i) as f32 * 0.3).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn f32_compiled_matches_dense_exactly() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let dense = net.forward(&frames());
        let sparse = compiled.forward(&frames());
        for (d, s) in dense.iter().zip(&sparse) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
        assert_eq!(compiled.precision(), RuntimePrecision::F32);
    }

    #[test]
    fn f16_compiled_close_to_dense() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let dense = net.forward(&frames());
        let half = compiled.forward(&frames());
        // f16 rounding perturbs but must not change the ballpark.
        for (d, s) in dense.iter().zip(&half) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
        // Predictions agree on a comfortable majority of frames.
        let agree = net
            .predict(&frames())
            .iter()
            .zip(compiled.predict(&frames()))
            .filter(|(a, b)| **a == *b)
            .count();
        assert!(agree >= 7, "agreement {agree}/9");
    }

    #[test]
    fn pruned_network_roundtrips() {
        // Zero half the columns (BSP-like) and verify the compiled network
        // still matches the dense forward of the pruned weights.
        let mut net = net();
        for (_, m) in net.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if c % 2 == 1 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let compiled = CompiledNetwork::compile(&net, 4, 2, RuntimePrecision::F32).unwrap();
        let dense = net.forward(&frames());
        let sparse = compiled.forward(&frames());
        for (d, s) in dense.iter().zip(&sparse) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn fused_layer_matches_unfused_step() {
        let net = net();
        let cell = &net.layers[0];
        let fused = FusedGruLayer::compile(cell, 4, 2).expect("fits");
        let x: Vec<f32> = (0..6).map(|i| (i as f32 * 0.5).sin()).collect();
        let mut h = vec![0.0f32; cell.hidden_dim()];
        for _ in 0..5 {
            let unfused = cell.step(&x, &h);
            let fused_h = fused.step(&x, &h);
            for (a, b) in unfused.h.iter().zip(&fused_h) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
            h = fused_h;
        }
    }

    #[test]
    fn int8_weight_only_quantization_close_to_f32() {
        let net = net();
        let q = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::Int8).unwrap();
        assert_eq!(q.precision(), RuntimePrecision::Int8);
        let dense = net.forward(&frames());
        let quantized = q.forward(&frames());
        for (d, s) in dense.iter().zip(&quantized) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 0.05, "{a} vs {b}");
            }
        }
        // Int8 storage accounting is the smallest of the three modes.
        let f32b = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let f16b = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16)
            .unwrap()
            .storage_bytes();
        assert!(q.storage_bytes() < f16b && f16b < f32b);
    }

    #[test]
    fn storage_shrinks_with_pruning_and_precision() {
        let net_dense = net();
        let mut net_pruned = net_dense.clone();
        for (_, m) in net_pruned.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if c % 4 != 0 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let d32 = CompiledNetwork::compile(&net_dense, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let p32 = CompiledNetwork::compile(&net_pruned, 4, 4, RuntimePrecision::F32)
            .unwrap()
            .storage_bytes();
        let p16 = CompiledNetwork::compile(&net_pruned, 4, 4, RuntimePrecision::F16)
            .unwrap()
            .storage_bytes();
        assert!(p32 < d32 / 2, "pruning shrinks storage: {p32} vs {d32}");
        assert!(p16 < p32, "f16 shrinks storage further: {p16} vs {p32}");
    }

    const ALL_FORMATS: [RuntimeFormat; 4] = [
        RuntimeFormat::Bspc,
        RuntimeFormat::Csr,
        RuntimeFormat::Bbs,
        RuntimeFormat::Csb,
    ];

    #[test]
    fn every_format_compiles_and_matches_dense() {
        let net = net();
        let dense = net.forward(&frames());
        for format in ALL_FORMATS {
            let compiled = CompiledNetwork::compile_with_formats(
                &net,
                4,
                4,
                &[],
                RuntimePrecision::F32,
                &[],
                format,
            )
            .unwrap();
            assert_eq!(compiled.format(), format);
            assert_eq!(compiled.layer_formats(), vec![format; 2]);
            let sparse = compiled.forward(&frames());
            for (d, s) in dense.iter().zip(&sparse) {
                for (a, b) in d.iter().zip(s) {
                    assert!((a - b).abs() < 1e-5, "{format:?}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn mixed_format_layers_compile_and_run() {
        let net = net();
        let compiled = CompiledNetwork::compile_with_formats(
            &net,
            4,
            4,
            &[],
            RuntimePrecision::F32,
            &[RuntimeFormat::Bbs, RuntimeFormat::Csb],
            RuntimeFormat::Bspc,
        )
        .unwrap();
        assert_eq!(
            compiled.layer_formats(),
            vec![RuntimeFormat::Bbs, RuntimeFormat::Csb]
        );
        let dense = net.forward(&frames());
        for (d, s) in dense.iter().zip(&compiled.forward(&frames())) {
            for (a, b) in d.iter().zip(s) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn forward_with_matches_forward_every_format_and_precision() {
        let net = net();
        for format in ALL_FORMATS {
            for precision in [
                RuntimePrecision::F32,
                RuntimePrecision::F16,
                RuntimePrecision::Int8,
            ] {
                let compiled =
                    CompiledNetwork::compile_with_formats(&net, 4, 4, &[], precision, &[], format)
                        .unwrap();
                let serial = compiled.forward(&frames());
                for threads in [1usize, 3] {
                    let exec = rtm_exec::Executor::new(threads);
                    assert_eq!(
                        compiled.forward_with(&exec, &frames()),
                        serial,
                        "{format:?} {precision:?} {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_session_lane_contract_holds_every_format() {
        let net = net();
        let streams: Vec<Vec<Vec<f32>>> = [5usize, 9, 3]
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 89 + t * 6 + i) as f32 * 0.31).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let exec = rtm_exec::Executor::new(2);
        for format in ALL_FORMATS {
            let compiled = CompiledNetwork::compile_with_formats(
                &net,
                4,
                4,
                &[],
                RuntimePrecision::F16,
                &[],
                format,
            )
            .unwrap();
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            let mut session = BatchedSession::new(&compiled, &exec, 2);
            assert_eq!(session.run(&streams), serial, "{format:?} lane contract");
        }
    }

    #[test]
    fn per_lane_streaming_decode_matches_offline() {
        use crate::config::DecoderChoice;
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let streams: Vec<Vec<Vec<f32>>> = [7usize, 12, 4, 9]
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 71 + t * 6 + i) as f32 * 0.27).sin() * 0.6)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let total_frames: usize = streams.iter().map(Vec::len).sum();
        for choice in [
            DecoderChoice::Argmax,
            DecoderChoice::CtcGreedy,
            DecoderChoice::CtcBeam(4),
        ] {
            let mut session = BatchedSession::new(&compiled, &exec, 3).with_decoder(choice);
            assert_eq!(session.decoder(), Some(choice));
            let (logits, hyps) = session.run_decoded(&streams);
            let stats = session.stats();
            assert_eq!(stats.stream_frames, total_frames);
            assert!(stats.compute_ns > 0, "step wall time accumulates");
            assert!(stats.batch_rtf() > 0.0);
            for (s, hyp) in hyps.iter().enumerate() {
                let hyp = hyp.as_ref().expect("every stream completed");
                // Per-lane streaming decode ≡ serial offline decode of the
                // same stream — the lane logits are bit-identical to a
                // serial forward, and the decoder is deterministic.
                let offline = compiled.decode_with(&exec, &streams[s], choice);
                assert_eq!(hyp, &offline, "{} stream {s}", choice.label());
                assert!(hyp.is_final);
                // And re-decoding the batched logits offline agrees too.
                let mut d = choice.build(compiled.head_b.len());
                assert_eq!(rtm_speech::decode_offline(d.as_mut(), &logits[s]), offline);
            }
        }
    }

    #[test]
    fn decoder_state_is_cleaned_up() {
        use crate::config::DecoderChoice;
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let mut session =
            BatchedSession::new(&compiled, &exec, 2).with_decoder(DecoderChoice::CtcGreedy);
        let fs = frames();
        session.admit(7);
        let out = session.step(&[(7, fs[0].as_slice())]).unwrap();
        assert_eq!(out.logits.len(), 1);
        session.retire(7);
        let hyp = session.finish_decode(7).expect("live decoder");
        assert!(hyp.is_final);
        assert_eq!(session.finish_decode(7), None, "decoder consumed");
        // Without a configured decoder there is nothing to finish.
        let mut plain = BatchedSession::new(&compiled, &exec, 2);
        plain.admit(1);
        assert_eq!(plain.finish_decode(1), None);
    }

    #[test]
    fn format_zoo_storage_accounting_differs_per_format() {
        // Same pruned weights, four formats: each format's byte accounting
        // reflects its own index structure, and every one prices all six
        // gates of both layers.
        let mut net = net();
        for (_, m) in net.prunable_mut() {
            let cols = m.cols();
            for r in 0..m.rows() {
                for c in 0..cols {
                    if (r + c) % 3 != 0 {
                        m[(r, c)] = 0.0;
                    }
                }
            }
        }
        let bytes: Vec<usize> = ALL_FORMATS
            .iter()
            .map(|&f| {
                CompiledNetwork::compile_with_formats(
                    &net,
                    4,
                    4,
                    &[],
                    RuntimePrecision::F32,
                    &[],
                    f,
                )
                .unwrap()
                .storage_bytes()
            })
            .collect();
        for &b in &bytes {
            assert!(b > 0);
        }
        assert!(
            bytes.windows(2).any(|w| w[0] != w[1]),
            "formats must not all price identically: {bytes:?}"
        );
    }

    #[test]
    fn runtime_format_tags_roundtrip() {
        for format in ALL_FORMATS {
            assert_eq!(RuntimeFormat::parse(format.tag()), Some(format));
            assert_eq!(RuntimeFormat::from_storage(format.storage()), Some(format));
        }
        assert_eq!(RuntimeFormat::parse("dense"), None);
        assert_eq!(
            RuntimeFormat::from_storage(rtm_compiler::StorageFormat::Dense),
            None
        );
    }

    #[test]
    fn forward_with_matches_forward_bit_exact() {
        let net = net();
        for precision in [
            RuntimePrecision::F32,
            RuntimePrecision::F16,
            RuntimePrecision::Int8,
        ] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial = compiled.forward(&frames());
            for threads in [1usize, 2, 4] {
                let exec = rtm_exec::Executor::new(threads);
                assert_eq!(
                    compiled.forward_with(&exec, &frames()),
                    serial,
                    "{precision:?}, {threads} threads"
                );
                assert_eq!(
                    compiled.predict_with(&exec, &frames()),
                    compiled.predict(&frames())
                );
            }
        }
    }

    #[test]
    fn batched_session_streams_match_serial_forward_bit_exact() {
        // Streams of different lengths, capacity smaller than the stream
        // count: every stream's logits must equal its serial forward bit
        // for bit, across precisions and thread counts, despite admissions
        // and lane compactions happening mid-run.
        let net = net();
        let lens = [9usize, 3, 7, 1, 5, 4];
        let streams: Vec<Vec<Vec<f32>>> = lens
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 97 + t * 6 + i) as f32 * 0.23).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            for threads in [1usize, 2, 4] {
                let exec = rtm_exec::Executor::new(threads);
                for capacity in [1usize, 2, 4, 8] {
                    let mut session = BatchedSession::new(&compiled, &exec, capacity);
                    assert_eq!(session.capacity(), capacity);
                    let batched = session.run(&streams);
                    assert_eq!(
                        batched, serial,
                        "{precision:?} capacity={capacity} threads={threads}"
                    );
                    // Session reuse: a second run must be identical too.
                    assert_eq!(session.run(&streams), serial);
                }
            }
        }
    }

    #[test]
    fn batched_session_handles_empty_streams() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut session = BatchedSession::new(&compiled, &exec, 3);
        let none: Vec<Vec<Vec<f32>>> = Vec::new();
        assert!(session.run(&none).is_empty());
        let streams = vec![vec![], frames(), vec![]];
        let out = session.run(&streams);
        assert!(out[0].is_empty() && out[2].is_empty());
        assert_eq!(out[1], compiled.forward(&frames()));
        // predict mirrors run.
        assert_eq!(session.predict(&streams)[1], compiled.predict(&frames()));
    }

    #[test]
    fn shedding_bounds_backlog_and_counts() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let streams: Vec<Vec<Vec<f32>>> = (0..6).map(|_| frames()).collect();
        let serial = compiled.forward(&frames());

        // Capacity 2, backlog capped at 1: the first two streams take the
        // lanes, one parks, the rest shed. RejectNew sacrifices the newest.
        let mut session = BatchedSession::new(&compiled, &exec, 2).with_admission(
            crate::serve::AdmissionConfig::default()
                .with_queue_depth(1)
                .with_shed(crate::serve::ShedPolicy::RejectNew),
        );
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.shed, 3);
        assert_eq!(stats.completed, 3);
        for (i, o) in out.iter().enumerate() {
            if i < 3 {
                assert_eq!(o, &serial, "served stream {i} bit-identical");
            } else {
                assert!(o.is_empty(), "shed stream {i} yields nothing");
            }
        }

        // DropOldest sacrifices the head of the queue instead: streams
        // 2, 3, 4 are dropped and the freshest arrival (5) is served.
        let mut session = BatchedSession::new(&compiled, &exec, 2).with_admission(
            crate::serve::AdmissionConfig::default()
                .with_queue_depth(1)
                .with_shed(crate::serve::ShedPolicy::DropOldest),
        );
        let out = session.run(&streams);
        assert_eq!(session.stats().shed, 3);
        for (i, o) in out.iter().enumerate() {
            if [0usize, 1, 5].contains(&i) {
                assert_eq!(o, &serial, "served stream {i}");
            } else {
                assert!(o.is_empty(), "dropped stream {i}");
            }
        }
    }

    #[test]
    fn deadline_misses_are_counted_not_hidden() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let mk = |len: usize| -> Vec<Vec<f32>> { frames().into_iter().take(len).collect() };
        let streams = [mk(5), mk(3), mk(2)];
        // Capacity 1: stream 1 waits 5 steps, stream 2 waits 8 — both past
        // a 4-step budget. Everything is still served in full.
        let mut session = BatchedSession::new(&compiled, &exec, 1)
            .with_admission(crate::serve::AdmissionConfig::default().with_deadline_steps(4));
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.deadline_missed, 2);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.frames, 10);
        for (o, s) in out.iter().zip(&streams) {
            assert_eq!(o.len(), s.len());
        }
    }

    #[test]
    fn check_policy_records_faults_but_keeps_serving() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut streams: Vec<Vec<Vec<f32>>> = (0..3).map(|_| frames()).collect();
        streams[1][4][2] = f32::NAN;
        let serial = compiled.forward(&frames());
        let mut session = BatchedSession::new(&compiled, &exec, 3)
            .with_health(crate::health::HealthPolicy::Check);
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.quarantined, 0, "check never retires");
        assert!(!session.faults().is_empty());
        assert_eq!(session.faults()[0].stream, 1);
        assert_eq!(session.faults()[0].frame, 4);
        // Every frame of every stream was served; the healthy streams stay
        // bit-identical to serial.
        assert_eq!(out[0], serial);
        assert_eq!(out[2], serial);
        assert_eq!(out[1].len(), streams[1].len());
    }

    #[test]
    fn quarantine_retires_only_the_faulty_lane() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mut streams: Vec<Vec<Vec<f32>>> = (0..3).map(|_| frames()).collect();
        streams[1][2][0] = f32::NAN;
        let serial = compiled.forward(&frames());
        let mut session = BatchedSession::new(&compiled, &exec, 3)
            .with_health(crate::health::HealthPolicy::Quarantine);
        let out = session.run(&streams);
        let stats = session.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 2, "the quarantined stream never completes");
        // The poisoned stream's logits stop at its last healthy frame.
        assert_eq!(out[1].len(), 2);
        assert_eq!(out[1], serial[..2].to_vec());
        // The surviving lanes are bit-identical to serial end to end.
        assert_eq!(out[0], serial);
        assert_eq!(out[2], serial);
        assert_eq!(session.faults().len(), 1);
        assert_eq!(session.faults()[0].stream, 1);
        assert_eq!(session.faults()[0].frame, 2);
    }

    #[test]
    fn incremental_subset_stepping_matches_serial_bit_exact() {
        // Continuous batching's core contract: lanes stepped in ragged
        // subsets — some streams lagging, some bursting — produce logits
        // bit-identical to each stream's serial forward.
        let net = net();
        let streams: Vec<Vec<Vec<f32>>> = (0..4)
            .map(|s| {
                (0..8)
                    .map(|t| {
                        (0..6)
                            .map(|i| ((s * 71 + t * 6 + i) as f32 * 0.27).sin() * 0.5)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
            let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
            let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();
            for threads in [1usize, 3] {
                let exec = rtm_exec::Executor::new(threads);
                let mut session = BatchedSession::new(&compiled, &exec, 4);
                let mut cursors = [0usize; 4];
                let mut out: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 4];
                for s in 0..4 {
                    assert!(session.admit(s));
                }
                assert!(session.is_full());
                // A fixed ragged schedule: each tick advances a different
                // subset, including out-of-lane-order subsets.
                let schedule: [&[usize]; 12] = [
                    &[0, 1, 2, 3],
                    &[3, 1],
                    &[0],
                    &[2, 0, 1],
                    &[3, 2],
                    &[1, 0, 3],
                    &[2],
                    &[0, 1, 2, 3],
                    &[3, 2, 1, 0],
                    &[0, 1],
                    &[2, 3],
                    &[0, 1, 2, 3],
                ];
                for subset in schedule {
                    let ready: Vec<(usize, &[f32])> = subset
                        .iter()
                        .filter(|&&s| cursors[s] < streams[s].len())
                        .map(|&s| (s, streams[s][cursors[s]].as_slice()))
                        .collect();
                    let served = session.step(&ready).unwrap();
                    for (s, row) in served.logits {
                        out[s].push(row);
                        cursors[s] += 1;
                    }
                }
                for s in 0..4 {
                    assert_eq!(session.frames_served(s), Some(cursors[s]));
                    assert_eq!(
                        out[s],
                        serial[s][..cursors[s]].to_vec(),
                        "{precision:?} threads={threads} stream {s} ragged schedule"
                    );
                }
                assert_eq!(session.drain(), vec![0, 1, 2, 3]);
                assert_eq!(session.active_lanes(), 0);
            }
        }
    }

    #[test]
    fn incremental_admit_retire_midflight_matches_serial() {
        // A lane retiring mid-flight and a fresh stream taking its place —
        // the continuous-batching lifecycle — never disturbs the others.
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let exec = rtm_exec::Executor::new(2);
        let mk = |seed: usize, len: usize| -> Vec<Vec<f32>> {
            (0..len)
                .map(|t| {
                    (0..6)
                        .map(|i| ((seed * 53 + t * 6 + i) as f32 * 0.33).sin() * 0.5)
                        .collect()
                })
                .collect()
        };
        let streams = [mk(0, 6), mk(1, 3), mk(2, 5)];
        let serial: Vec<Vec<Vec<f32>>> = streams.iter().map(|s| compiled.forward(s)).collect();

        let mut session = BatchedSession::new(&compiled, &exec, 2);
        let mut out: Vec<Vec<Vec<f32>>> = vec![Vec::new(); 3];
        let mut cursors = [0usize; 3];
        assert!(session.admit(0) && session.admit(1));
        assert!(!session.admit(2), "session is full");
        loop {
            let ready: Vec<(usize, &[f32])> = session
                .tokens()
                .to_vec()
                .into_iter()
                .filter(|&s| cursors[s] < streams[s].len())
                .map(|s| (s, streams[s][cursors[s]].as_slice()))
                .collect();
            if ready.is_empty() {
                break;
            }
            for (s, row) in session.step(&ready).unwrap().logits {
                out[s].push(row);
                cursors[s] += 1;
            }
            // Retire exhausted lanes and backfill with the waiting stream.
            for s in session.tokens().to_vec() {
                if cursors[s] == streams[s].len() {
                    assert!(session.retire(s));
                    session.mark_completed();
                }
            }
            if !session.is_full() && session.frames_served(2).is_none() && cursors[2] == 0 {
                assert!(session.admit(2));
            }
        }
        assert_eq!(out.to_vec(), serial, "mid-flight churn keeps bit-identity");
        assert_eq!(session.stats().admitted, 3);
        assert_eq!(session.stats().completed, 3);
        assert!(!session.retire(7), "unknown token retires nothing");
    }

    #[test]
    #[should_panic(expected = "batch capacity")]
    fn zero_capacity_rejected() {
        let net = net();
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap();
        let exec = rtm_exec::Executor::new(1);
        let _ = BatchedSession::new(&compiled, &exec, 0);
    }

    #[test]
    fn bad_partition_propagates_error() {
        let net = net();
        // stripes > rows for 12-row matrices is clamped, so force the error
        // with zero blocks.
        assert!(CompiledNetwork::compile(&net, 0, 4, RuntimePrecision::F32).is_err());
    }
}
