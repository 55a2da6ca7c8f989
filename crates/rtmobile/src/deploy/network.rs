//! The compiled network: lowering a trained GRU to sparse storage, and the
//! three frame loops over it (serial reference, lockstep lanes, one
//! utterance in chunks).

use super::format::{RuntimeFormat, RuntimePrecision};
use super::layer::{CompiledGruLayer, GruRuntimeScratch};
use rtm_exec::ExecError;
use rtm_rnn::GruNetwork;
use rtm_sparse::footprint::Footprint;
use rtm_sparse::BspcMatrix;
use rtm_tensor::f16::{quantize_f16, quantize_f16_slice};
use rtm_tensor::gemm::RowTiles;
use rtm_tensor::{Matrix, Vector};

/// Frames per chunk of [`CompiledNetwork::forward_with`]: each gate's
/// weights serve this many frames back to back. At hidden 1024 the chunk's
/// three gate planes and two activation planes take 320 KB, which leaves a
/// layer's recurrent weights room in L2; chunks of 4 to 32 frames measured
/// alike (EXPERIMENTS.md B3).
const CHUNK: usize = 16;

/// A GRU network compiled to BSPC storage.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    pub(crate) layers: Vec<CompiledGruLayer>,
    /// The dense head: the reference `forward`, the batched lanes and the
    /// wire read it row-major.
    head_w: Matrix,
    /// `head_w` as the one-lane production head runs it — derived, never
    /// serialized, and private so that it cannot drift from `head_w`.
    head_tiles: RowTiles,
    pub(crate) head_b: Vec<f32>,
    pub(crate) precision: RuntimePrecision,
}

impl CompiledNetwork {
    /// Compiles `net` with the given BSP partition and precision.
    ///
    /// Every gate matrix is converted to BSPC holding the one value store
    /// of `precision` — under [`RuntimePrecision::F16`] quantized through
    /// binary16 first. No reorder permutation is attached: BSPC's row tiles
    /// already keep each stripe's same-pattern rows together (§IV-B-c).
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
        if stripes == 0 || blocks == 0 {
            return Err(rtm_sparse::BspcError::ZeroPartition);
        }
        // What the lowering sees per precision: f16 pre-rounds (so a weight
        // that rounds to zero leaves the kept pattern, and the 2-byte store
        // holds exactly these values); int8 derives its codes from the
        // original f32 values — dequantizing here would round them twice.
        let quant = |m: &Matrix| -> Matrix {
            match precision {
                RuntimePrecision::F32 | RuntimePrecision::Int8 => m.clone(),
                RuntimePrecision::F16 => m.map(quantize_f16),
            }
        };
        let lower = |m: &Matrix| -> Result<BspcMatrix, rtm_sparse::BspcError> {
            let q = quant(m);
            let s = stripes.min(q.rows().max(1));
            let b = blocks.min(q.cols().max(1));
            BspcMatrix::from_dense_at(&q, s, b, precision.storage())
        };

        let mut layers = Vec::with_capacity(net.layers.len());
        for cell in &net.layers {
            layers.push(CompiledGruLayer {
                w_z: lower(&cell.w_z)?,
                u_z: lower(&cell.u_z)?,
                b_z: cell.b_z.clone(),
                w_r: lower(&cell.w_r)?,
                u_r: lower(&cell.u_r)?,
                b_r: cell.b_r.clone(),
                w_n: lower(&cell.w_n)?,
                u_n: lower(&cell.u_n)?,
                b_n: cell.b_n.clone(),
                hidden: cell.hidden_dim(),
                precision,
            });
        }
        // The head stays a dense f32 gemv; int8 models weight-only
        // per-tensor quantization there (the DESIGN.md §6 what-if).
        let head_w = match precision {
            RuntimePrecision::F32 => net.head.w.clone(),
            RuntimePrecision::F16 => net.head.w.map(quantize_f16),
            RuntimePrecision::Int8 => {
                rtm_tensor::QuantizedMatrix::quantize(&net.head.w).dequantize()
            }
        };
        Ok(CompiledNetwork::from_parts(
            layers,
            head_w,
            net.head.b.clone(),
            precision,
        ))
    }

    /// Assembles a network from its stored parts — the one constructor,
    /// shared by the compiler and the model-file reader: it derives the
    /// one-lane head's row tiles from `head_w`.
    pub(crate) fn from_parts(
        layers: Vec<CompiledGruLayer>,
        head_w: Matrix,
        head_b: Vec<f32>,
        precision: RuntimePrecision,
    ) -> CompiledNetwork {
        CompiledNetwork {
            layers,
            head_tiles: RowTiles::new(&head_w),
            head_w,
            head_b,
            precision,
        }
    }

    /// The dense head's weights, row-major.
    pub(crate) fn head_w(&self) -> &Matrix {
        &self.head_w
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

    /// The network-level numeric mode (a compile runs every layer at it; a
    /// loaded bundle's layers may differ, see
    /// [`CompiledNetwork::layer_precisions`]).
    pub fn precision(&self) -> RuntimePrecision {
        self.precision
    }

    /// The storage precision each compiled layer runs at, in layer order.
    pub fn layer_precisions(&self) -> Vec<RuntimePrecision> {
        self.layers.iter().map(|l| l.precision).collect()
    }

    /// The storage format of every compiled gate: always BSPC.
    pub fn format(&self) -> RuntimeFormat {
        RuntimeFormat::Bspc
    }

    /// The compiled GRU layers, in execution order.
    pub fn layers(&self) -> &[CompiledGruLayer] {
        &self.layers
    }

    /// Total bytes of the compiled weight storage (values + indices +
    /// quantization scale metadata) at each layer's runtime precision.
    pub fn storage_bytes(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| {
                l.gates()
                    .map(|m| Footprint::bspc(m, l.precision.storage()).total())
            })
            .sum()
    }

    /// Runs inference over a frame sequence, returning per-frame logits —
    /// the serial reference loop (no executor) every bit-identity suite
    /// compares the production path against.
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
            if self.precision == RuntimePrecision::F16 {
                // The reference loop rounds in software, element by element.
                x.iter_mut().for_each(|v| *v = quantize_f16(*v));
            }
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

    /// [`CompiledNetwork::forward`] on a parallel [`rtm_exec::Executor`]:
    /// the production loop for one utterance. It runs the frames in chunks
    /// of up to 16, layer by layer: each layer first takes the three input
    /// products `W·x` of every frame of the chunk, one frame-major product
    /// per gate ([`spmv_frames_into`](rtm_exec::Executor::spmv_frames_into):
    /// the chunk's frames are the broadcast rows of each register tile, four
    /// per loaded weight), then runs the recurrence over the chunk's frames
    /// in order; the state carries from chunk to chunk, and the head runs
    /// once per chunk, over its frames the same way
    /// ([`RowTiles::gemv_frames_into`]). Both halves are those of
    /// [`CompiledGruLayer::step_batch_into`] at one lane, and a frame of a
    /// frame-major product carries the bits of the one-lane
    /// [`spmv_into`](rtm_exec::Executor::spmv_into) and row-tile head of
    /// [`CompiledNetwork::forward_frame_batch`]: bit-identical to the serial
    /// forward for any thread count, with the same kernel counts (one
    /// `kernel.spmv.*` per gate and frame, one `kernel.gemv.dense` per
    /// frame).
    ///
    /// The buffers are sized for one chunk once per call, whatever the
    /// utterance's length; the call allocates nothing per frame but the
    /// returned logits row.
    ///
    /// # Panics
    ///
    /// Panics if the frame dimension does not match the compiled model, or
    /// if a kernel task panics.
    pub fn forward_with(&self, exec: &rtm_exec::Executor, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let widest = self.layers.iter().map(|l| l.hidden).max().unwrap_or(0);
        let mut states: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.hidden]).collect();
        let mut scratch = GruRuntimeScratch::new();
        scratch.reserve(CHUNK, widest);
        let mut xs = Vec::with_capacity(CHUNK * self.input_dim().max(widest));
        let mut ys = Vec::with_capacity(CHUNK * widest.max(self.num_classes()));
        let mut logits = Vec::with_capacity(frames.len());
        for chunk in frames.chunks(CHUNK) {
            self.forward_chunk(
                exec,
                chunk,
                &mut states,
                &mut scratch,
                [&mut xs, &mut ys],
                &mut logits,
            )
            .expect("frame dims match the compiled model");
        }
        logits
    }

    /// One chunk of [`CompiledNetwork::forward_with`]: `chunk`'s frames
    /// through every layer, carrying `states` (one `[hidden]` vector per
    /// layer) across, and one logits row per frame appended to `logits`.
    /// `xs` and `ys` are the chunk's frame-major activation planes, into and
    /// out of a layer; they trade places between layers, and `ys` ends as
    /// the chunk's frame-major logits plane.
    fn forward_chunk(
        &self,
        exec: &rtm_exec::Executor,
        chunk: &[Vec<f32>],
        states: &mut [Vec<f32>],
        scratch: &mut GruRuntimeScratch,
        [xs, ys]: [&mut Vec<f32>; 2],
        logits: &mut Vec<Vec<f32>>,
    ) -> Result<(), ExecError> {
        let mut width = self.input_dim();
        xs.clear();
        for frame in chunk {
            if frame.len() != width {
                return Err(ExecError::Shape(rtm_tensor::ShapeError {
                    op: "forward_with frame",
                    lhs: (width, 1),
                    rhs: (frame.len(), 1),
                }));
            }
            xs.extend_from_slice(frame);
        }
        if self.precision == RuntimePrecision::F16 {
            quantize_f16_slice(xs);
        }
        let k = chunk.len();
        for (layer, h) in self.layers.iter().zip(states.iter_mut()) {
            layer.input_products_into(exec, xs, k, 1, scratch)?;
            width = layer.hidden;
            ys.resize(k * width, 0.0);
            for t in 0..k {
                let (done, rest) = ys.split_at_mut(t * width);
                let h_prev = if t == 0 {
                    &h[..]
                } else {
                    &done[(t - 1) * width..]
                };
                layer.recurrent_into(exec, h_prev, 1, scratch, t, &mut rest[..width])?;
            }
            h.copy_from_slice(&ys[(k - 1) * width..]);
            std::mem::swap(xs, ys);
        }
        let classes = self.head_b.len();
        ys.resize(k * classes, 0.0);
        // The chunk's frames share each loaded lane row of the head's row
        // tiles, as they do the gates'.
        let v = rtm_tensor::simd::active_variant();
        self.head_tiles.gemv_frames_into(v, xs, k, ys)?;
        for t in 0..k {
            let row = &mut ys[t * classes..(t + 1) * classes];
            rtm_tensor::simd::broadcast_add(&self.head_b, 1, row);
        }
        logits.extend((0..k).map(|t| ys[t * classes..(t + 1) * classes].to_vec()));
        Ok(())
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
    /// per-lane streaming decode in [`super::BatchedSession`]; both feed the
    /// same logits to the same decoder, so their hypotheses are
    /// bit-identical.
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

    /// The production frame loop's body — one frame for `b ≥ 1` lanes
    /// through all layers and the head: `xs` holds `b` input frames
    /// lane-major and is consumed as the inter-layer activation
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
        if self.precision == RuntimePrecision::F16 {
            // Hardware rounding where the host has it, like every other plane
            // of the production step; equal to the reference on every `f32`.
            quantize_f16_slice(xs);
        }
        for (layer, hs) in self.layers.iter().zip(states.iter_mut()) {
            layer.step_batch_into(exec, xs, hs, b, layer.precision, scratch, hs_next)?;
            std::mem::swap(hs, hs_next);
            xs.clear();
            xs.extend_from_slice(hs);
        }
        logits.resize(self.head_b.len() * b, 0.0);
        self.head_into(xs, b, logits)
    }

    /// The dense head for `b` lanes: `xs` is `[hidden × b]` lane-major,
    /// `logits` the `[classes × b]` output.
    fn head_into(&self, xs: &[f32], b: usize, logits: &mut [f32]) -> Result<(), ExecError> {
        // At one lane the head's rows are the lanes (DESIGN.md §8); batched
        // lanes stay the lanes of the row-major tile, which wins every
        // measured `b > 1`.
        let v = rtm_tensor::simd::active_variant();
        if b == 1 {
            self.head_tiles.gemv_into(v, xs, logits)?;
        } else {
            rtm_tensor::gemm::gemv_batch_into(&self.head_w, xs, b, logits)?;
        }
        rtm_tensor::simd::broadcast_add(&self.head_b, b, logits);
        Ok(())
    }
}
