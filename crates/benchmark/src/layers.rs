//! The per-layer replay: each layer of the stack (crate / module) is timed
//! from outside, by calling its public API on the workload's own network,
//! precision, lane count and recorded inputs. No timer lives in a product
//! crate; tracing is off while the probes run.
//!
//! The sparse, exec and compiler probes work on the layer-1 recurrent
//! update gate (`U_z`, hidden × hidden), rebuilt from the dense network the
//! way `CompiledNetwork::compile` lowers it: f16-rounded when the workload
//! is f16, `BspcMatrix::from_dense` on the 8×8 partition, with the
//! `ReorderPlan::compute(_, 8)` permutation attached.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtm_compiler::plan::{ExecutionPlan, StorageFormat};
use rtm_compiler::reorder::ReorderPlan;
use rtm_exec::Executor;
use rtm_sim::{GruWorkload, InferenceSim};
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision};
use rtm_tensor::activations::{sigmoid_slice, tanh_slice};
use rtm_tensor::wire::FrameDecoder;
use rtm_tensor::{Matrix, Vector};
use rtmobile::bundle::{self, BundleMeta};
use rtmobile::deploy::{BatchedSession, GruRuntimeScratch, RuntimePrecision};
use rtmobile::serve::protocol::{put_client_msg, put_server_msg, ClientMsg, ServerMsg};

use crate::model::{Model, FEATURE_DIM};
use crate::oracle::Expected;
use crate::spans::SpanLog;
use crate::spec::{Drive, ModelKind, Scale, Workload, BLOCKS, STRIPES};

/// Metric name → value, as the probes fill it in.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Hidden-sized gate kernels one frame of a 2-layer GRU runs: three
/// recurrent gates in layer 0, three input and three recurrent gates in
/// layer 1 (layer 0's three input gates are hidden × features, ~4 % of the
/// size, and are left to the residual).
pub fn hidden_gates_per_frame(layers: usize) -> f64 {
    (3 * (2 * layers - 1)) as f64
}

/// A microbenchmark estimator: one warm-up call, a calibration call to
/// size batches to a ninth of the budget, then the median of nine batch
/// means. Returns microseconds per call.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    budget: Duration,
}

impl Probe {
    /// A probe that spends about `budget_ms` per measurement.
    pub fn new(budget_ms: f64) -> Probe {
        Probe {
            budget: Duration::from_secs_f64(budget_ms / 1e3),
        }
    }

    /// Microseconds per call of `f`.
    pub fn us(&self, mut f: impl FnMut()) -> f64 {
        const BATCHES: usize = 9;
        f();
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let per_batch = self.budget.as_secs_f64() / BATCHES as f64;
        let iters = ((per_batch / once) as usize).clamp(1, 1_000_000);
        let mut means = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            means.push(t0.elapsed().as_secs_f64() * 1e6 / iters as f64);
        }
        crate::stats::median(&crate::stats::sorted(means))
    }
}

/// Lane-major `[dim × b]` plane whose lane `j` is `rows[(shift + j) % len]`.
fn lane_major(rows: &[Vec<f32>], b: usize, shift: usize) -> Vec<f32> {
    let dim = rows[0].len();
    let mut out = vec![0.0; dim * b];
    for j in 0..b {
        let row = &rows[(shift + j) % rows.len()];
        for (i, &v) in row.iter().enumerate() {
            out[i * b + j] = v;
        }
    }
    out
}

/// The layer-1 recurrent gate as the compiler lowers it.
fn lowered_gate(dense: &Matrix, precision: RuntimePrecision) -> (Matrix, ReorderPlan, BspcMatrix) {
    let q = match precision {
        RuntimePrecision::F16 => dense.map(rtm_tensor::f16::quantize_f16),
        RuntimePrecision::F32 | RuntimePrecision::Int8 => dense.clone(),
    };
    let plan = ReorderPlan::compute(&q, 8);
    let perm: Vec<u32> = plan.perm.iter().map(|&r| r as u32).collect();
    let m = BspcMatrix::from_dense(&q, STRIPES, BLOCKS)
        .and_then(|m| m.with_reorder(perm))
        .expect("the 8x8 partition fits the gate");
    (q, plan, m)
}

/// Runs every replay probe for workload `w` on `model` and returns the
/// metrics they produce. `want` is the oracle's serial forward (the
/// recorded logits the decoder probe replays).
pub fn replay(
    w: &Workload,
    model: &Model,
    want: &[Expected],
    scale: &Scale,
    seed: u64,
    log: &mut SpanLog,
    root: u64,
) -> Ledger {
    let probe = Probe::new(scale.probe_ms);
    let mut out = Ledger::new();
    let net = model.net();
    let dense = &model.dense;
    let b = w.lanes();
    let precision = model.precision;
    let prec = precision.storage();
    let frames = &model.utterances[0].frames;
    let hidden = dense.layers[1].hidden_dim();
    let classes = net.num_classes();
    let exec1 = Executor::new(1);

    // Recorded inputs: the utterance's frames, and the layer-0 hidden
    // states they produce (what layer 1 and the head actually see).
    let h0 = dense.layers[0].forward_states(frames);
    let x1 = &h0[h0.len() / 2];
    let xs_in = lane_major(frames, b, 0);
    let xs_h = lane_major(&h0, b, 0);
    let hs_prev = lane_major(&h0, b, 1);

    let group = |log: &mut SpanLog, name: &'static str, t0: Instant| {
        log.add(name, Some(root), t0, Instant::now(), 0);
    };

    // --- tensor ---------------------------------------------------------
    let t0 = Instant::now();
    {
        let (mut z, mut r, mut n) = (xs_h.clone(), hs_prev.clone(), xs_h.clone());
        let mut rh = vec![0.0; hidden * b];
        out.insert(
            "tensor.sweeps_us",
            probe.us(|| {
                sigmoid_slice(&mut z);
                sigmoid_slice(&mut r);
                Vector::hadamard_into(&r, &hs_prev, &mut rh);
                tanh_slice(&mut n);
            }),
        );
        let mut logits = vec![0.0; classes * b];
        out.insert(
            "tensor.head_us",
            probe.us(|| {
                rtm_tensor::gemm::gemv_batch_into(&dense.head.w, &xs_h, b, &mut logits)
                    .expect("head dims");
                rtm_tensor::simd::broadcast_add(&dense.head.b, b, &mut logits);
            }),
        );
        let row = dense.layers[1].u_z.row(0);
        for (name, lanes) in [("tensor.dot_batch_us_b4", 4), ("tensor.dot_batch_us_b8", 8)] {
            let xs = lane_major(&h0, lanes, 0);
            let mut acc = vec![0.0; lanes];
            out.insert(
                name,
                probe.us(|| rtm_tensor::simd::dot_batch(row, &xs, lanes, &mut acc)),
            );
        }
    }
    group(log, "layers.tensor", t0);

    // --- compiler (also builds the gate the sparse/exec probes use) ------
    let t0 = Instant::now();
    let gate_dense = &dense.layers[1].u_z;
    let (q, plan, gate) = lowered_gate(gate_dense, precision);
    out.insert(
        "compiler.reorder_s",
        probe.us(|| {
            std::hint::black_box(ReorderPlan::compute(&q, 8));
        }) / 1e6,
    );
    out.insert("compiler.reorder_groups", plan.num_groups() as f64);
    let rows_per_thread = ExecutionPlan::cpu_default(StorageFormat::Bspc).rows_per_thread;
    out.insert(
        "compiler.rle_elim_ratio",
        rtm_compiler::rle::analyze_loads(&q, Some(&plan.perm), rows_per_thread).elimination_ratio(),
    );
    group(log, "layers.compiler", t0);

    // --- sparse ----------------------------------------------------------
    let t0 = Instant::now();
    let mut y = vec![0.0; hidden];
    let mut spmv =
        |p: Precision| probe.us(|| gate.spmv_prec_into(p, x1, &mut y).expect("gate dims"));
    let spmv_f32 = spmv(Precision::F32);
    let spmv_f16 = spmv(Precision::F16);
    let spmv_i8 = spmv(Precision::Int8);
    out.insert("sparse.spmv_us_f32", spmv_f32);
    out.insert("sparse.spmv_us_f16", spmv_f16);
    out.insert("sparse.spmv_us_int8", spmv_i8);
    let csr = CsrMatrix::from_dense(&q);
    out.insert(
        "sparse.spmv_us_csr_f32",
        probe.us(|| csr.spmv_into(x1, &mut y).expect("gate dims")),
    );
    let spmm = |p: Precision, lanes: usize| {
        let xs = lane_major(&h0, lanes, 0);
        let mut ys = vec![0.0; hidden * lanes];
        probe.us(|| {
            gate.spmm_prec_into(p, &xs, lanes, &mut ys)
                .expect("gate dims")
        })
    };
    let grid = [
        ("sparse.spmm_us_f32_b8", Precision::F32, 8),
        ("sparse.spmm_us_f32_b12", Precision::F32, 12),
        ("sparse.spmm_us_f32_b32", Precision::F32, 32),
        ("sparse.spmm_us_f16_b8", Precision::F16, 8),
        ("sparse.spmm_us_f16_b12", Precision::F16, 12),
        ("sparse.spmm_us_int8_b8", Precision::Int8, 8),
    ];
    for (name, p, lanes) in grid {
        out.insert(name, spmm(p, lanes));
    }
    let serial_us = match prec {
        Precision::F32 => spmv_f32,
        Precision::F16 => spmv_f16,
        Precision::Int8 => spmv_i8,
    };
    // The workload's own cell: taken from the grid when it is one of its
    // cells, so one kernel never reports two numbers.
    let gate_us = match grid.iter().find(|&&(_, p, lanes)| p == prec && lanes == b) {
        _ if b == 1 => serial_us,
        Some((name, ..)) => out[name],
        None => spmm(prec, b),
    };
    out.insert("sparse.gate_us", gate_us);
    out.insert("sparse.nnz", gate.stored_len() as f64);
    // Computed from sizes, not measured: stored values at the workload's
    // precision + index words + the input and output planes.
    out.insert(
        "sparse.bytes_per_call",
        (gate.stored_len() * prec.bytes()
            + gate.index_words() * 4
            + (gate.cols() + gate.rows()) * b * 4) as f64,
    );
    group(log, "layers.sparse", t0);

    // --- exec ------------------------------------------------------------
    let t0 = Instant::now();
    let t1 = probe.us(|| {
        exec1
            .spmv_bspc_prec_into(&gate, prec, x1, &mut y)
            .expect("gate dims")
    });
    let exec2 = Executor::new(2);
    let t2 = probe.us(|| {
        exec2
            .spmv_bspc_prec_into(&gate, prec, x1, &mut y)
            .expect("gate dims")
    });
    out.insert("exec.spmv_us_t1", t1);
    out.insert("exec.spmv_us_t2", t2);
    out.insert("exec.dispatch_overhead_us", t1 - serial_us);
    out.insert("exec.imbalance", exec2.partition_bspc(&gate).imbalance());
    drop(exec2);
    group(log, "layers.exec", t0);

    // --- deploy ----------------------------------------------------------
    let t0 = Instant::now();
    let per_frame = |us: f64| us / frames.len() as f64;
    let forward_frame_us = per_frame(probe.us(|| {
        std::hint::black_box(net.forward(frames));
    }));
    out.insert("deploy.forward_frame_us", forward_frame_us);
    out.insert(
        "deploy.forward_with_frame_us",
        per_frame(probe.us(|| {
            std::hint::black_box(net.forward_with(&exec1, frames));
        })),
    );
    let mut scratch = GruRuntimeScratch::new();
    let mut hs_out = Vec::new();
    let mut layer_sum = 0.0;
    for (name, layer, xs) in [
        ("deploy.layer0_step_us", &net.layers()[0], &xs_in),
        ("deploy.layer1_step_us", &net.layers()[1], &xs_h),
    ] {
        let us = probe.us(|| {
            layer
                .step_batch_into(
                    &exec1,
                    xs,
                    &hs_prev,
                    b,
                    layer.precision(),
                    &mut scratch,
                    &mut hs_out,
                )
                .expect("layer dims")
        });
        layer_sum += us;
        out.insert(name, us);
    }
    let step_args: Vec<(usize, &[f32])> = (0..b)
        .map(|j| (j, frames[j % frames.len()].as_slice()))
        .collect();
    let step_us = {
        let mut session = BatchedSession::new(net, &exec1, b);
        (0..b).for_each(|j| assert!(session.admit(j)));
        probe.us(|| {
            std::hint::black_box(session.step(&step_args).expect("step"));
        })
    };
    let step_decoded_us = {
        let mut session = BatchedSession::new(net, &exec1, b).with_decoder(w.decoder);
        (0..b).for_each(|j| assert!(session.admit(j)));
        probe.us(|| {
            std::hint::black_box(session.step(&step_args).expect("step"));
        })
    };
    let admit_retire_us = {
        // One lane joins and leaves a session whose other lanes stay put.
        let mut session = BatchedSession::new(net, &exec1, b).with_decoder(w.decoder);
        (1..b).for_each(|j| assert!(session.admit(j)));
        probe.us(|| {
            assert!(session.admit(0));
            assert!(session.retire(0));
            std::hint::black_box(session.finish_decode(0));
        })
    };
    out.insert("deploy.step_us", step_us);
    out.insert("deploy.step_decoded_us", step_decoded_us);
    out.insert(
        "deploy.step_residual_us",
        step_us - layer_sum - out["tensor.head_us"],
    );
    out.insert("deploy.admit_retire_us", admit_retire_us);
    // Share of the workload's own frame time: `forward_with` in process,
    // the batched step behind the server.
    let frame_us = match w.drive {
        Drive::OnDevice => out["deploy.forward_with_frame_us"],
        Drive::Serve(_) => step_us,
    };
    out.insert(
        "sparse.kernel_share",
        hidden_gates_per_frame(dense.layers.len()) * gate_us / frame_us,
    );
    group(log, "layers.deploy", t0);

    // --- speech ----------------------------------------------------------
    let t0 = Instant::now();
    {
        let mut decoder = w.decoder.build(classes);
        let rows = &want[0].logits;
        let per_utt = probe.us(|| {
            decoder.reset();
            for row in rows {
                std::hint::black_box(decoder.push_frame(row));
            }
        });
        out.insert("speech.decode_frame_us", per_utt / rows.len() as f64);
    }
    group(log, "layers.speech", t0);

    // --- bundle ----------------------------------------------------------
    let t0 = Instant::now();
    let meta = BundleMeta::default().with_generation(1);
    out.insert(
        "bundle.encode_s",
        probe.us(|| {
            std::hint::black_box(bundle::to_bytes_with(net, &meta));
        }) / 1e6,
    );
    group(log, "layers.bundle", t0);

    // --- serve (codec only; the wire numbers come from the runs) ---------
    let t0 = Instant::now();
    {
        let (frame, row) = (&frames[0], &want[0].logits[0]);
        let (mut wire, mut dec) = (Vec::new(), FrameDecoder::new());
        let us = probe.us(|| {
            wire.clear();
            put_client_msg(&mut wire, &ClientMsg::Frame(frame.clone()));
            dec.push(&wire);
            let payload = dec.next_frame().expect("framed").expect("complete");
            std::hint::black_box(ClientMsg::decode(&payload).expect("frame decodes"));
            wire.clear();
            put_server_msg(&mut wire, &ServerMsg::Logits(row.clone()));
            dec.push(&wire);
            let payload = dec.next_frame().expect("framed").expect("complete");
            std::hint::black_box(ServerMsg::decode(&payload).expect("logits decode"));
        });
        out.insert("serve.proto_roundtrip_ns", us * 1e3);
    }
    group(log, "layers.serve_codec", t0);

    // --- sim (analytical; one timestep so it compares with one frame) ----
    let t0 = Instant::now();
    {
        let rate = match w.model {
            ModelKind::Paper { rate, .. } => rate,
            ModelKind::Pipeline => 10.0,
        };
        let mut workload = GruWorkload::with_bsp_pattern(
            FEATURE_DIM,
            hidden,
            dense.layers.len(),
            rate,
            1.0,
            STRIPES,
            BLOCKS,
            seed,
        );
        workload.timesteps_per_frame = 1;
        let sim = InferenceSim::new();
        let plan = |p: ExecutionPlan| p.with_bsp_partition(STRIPES, BLOCKS);
        let cpu = sim.run_frame(
            &workload,
            &plan(ExecutionPlan::cpu_default(StorageFormat::Bspc)),
        );
        let gpu = sim.run_frame(
            &workload,
            &plan(ExecutionPlan::gpu_default(StorageFormat::Bspc)),
        );
        out.insert("sim.cpu_frame_us", cpu.time_us);
        out.insert("sim.gpu_frame_us", gpu.time_us);
        out.insert("sim.cpu_over_measured", cpu.time_us / forward_frame_us);
    }
    group(log, "layers.sim", t0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_time_per_call() {
        let probe = Probe::new(5.0);
        let us = probe.us(|| std::thread::sleep(Duration::from_micros(200)));
        assert!(us >= 200.0, "a 200 us sleep cannot take {us} us");
        assert!(us < 20_000.0, "per call, not per batch: {us}");
    }

    #[test]
    fn lane_major_interleaves_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        assert_eq!(lane_major(&rows, 2, 0), [1.0, 3.0, 2.0, 4.0]);
        assert_eq!(lane_major(&rows, 2, 2), [5.0, 1.0, 6.0, 2.0], "wraps");
        assert_eq!(hidden_gates_per_frame(2), 9.0);
    }
}
