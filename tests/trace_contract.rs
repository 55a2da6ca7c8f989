//! Contracts of the observability layer (DESIGN.md §11).
//!
//! This suite runs in its own test binary (see `crates/rtmobile/Cargo.toml`)
//! because it mutates two process-global switches — the trace config and
//! the SIMD dispatch policy — that would race any other test reading them
//! from a shared test process. Within the binary, every test serializes on
//! one lock, and each restores the trace switch to off before releasing it.
//!
//! The contracts:
//!
//! * spans nest: a child span records its parent's id, across stack depth;
//! * kernel counters are *exact*: one serial `spmv_into` on a known BSPC
//!   matrix adds exactly one `kernel.spmv.bspc` call, `kept_rows` rows and
//!   `stored_len` (== nnz) touched values, and the executor entry adds the
//!   same amounts to the same keys (never double-counted) — for every
//!   format × precision × lane count the serial and pooled entries leave
//!   identical `kernel.*` counters, under the documented literal names,
//!   and so do the dense entries (nothing for the empty product,
//!   `kernel.gemv.dense` at one lane, `kernel.gemm.dense` above);
//! * a single stream is a vector product: `forward_with` counts six
//!   `kernel.spmv.*` per layer-step and one `kernel.gemv.dense` per frame,
//!   never the batched `kernel.spmm.*` / `kernel.gemm.dense` keys;
//! * histograms are deterministic: identical value sequences produce
//!   identical snapshots;
//! * tracing off is free of *behavior*: `predict_with` outputs are
//!   bit-identical with tracing off and on, for every SIMD policy.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::simd::{SimdPolicy, Variant};
use rtm_tensor::Matrix;
use rtmobile::deploy::{CompiledNetwork, RuntimePrecision};
use rtmobile::TraceConfig;
use std::sync::Mutex;

/// Serializes the tests in this binary; poison-resilient so one failing
/// test does not cascade into every later one.
static LOCK: Mutex<()> = Mutex::new(());

/// Locks, switches tracing on and clears the registry. The guard must stay
/// alive for the duration of the test; callers restore `off` before drop.
fn traced() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    rtm_trace::set_config(TraceConfig::on());
    rtm_trace::global().reset();
    guard
}

fn bsp_weight(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        if (r / 8 + c) % 3 == 0 {
            0.05 + ((r * 7 + c * 13) % 23) as f32 / 29.0
        } else {
            0.0
        }
    })
}

#[test]
fn spans_nest_correctly() {
    let _guard = traced();
    {
        let _root = rtm_trace::span("test.root");
        {
            let _child = rtm_trace::span("test.child");
            let _grandchild = rtm_trace::span("test.grandchild");
        }
        let _sibling = rtm_trace::span("test.sibling");
    }
    let spans = rtm_trace::global().spans();
    rtm_trace::set_config(TraceConfig::off());

    let by_name = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
    };
    let root = by_name("test.root");
    let child = by_name("test.child");
    let grandchild = by_name("test.grandchild");
    let sibling = by_name("test.sibling");
    assert_eq!(root.parent, None);
    assert_eq!(child.parent, Some(root.id));
    assert_eq!(grandchild.parent, Some(child.id));
    assert_eq!(sibling.parent, Some(root.id));
    // Monotonic timing: every span closes at or after it opens, and a
    // child lives within its parent's window.
    for s in &spans {
        assert!(s.dur_us >= 0.0, "{}: dur {}", s.name, s.dur_us);
    }
    assert!(grandchild.start_us >= child.start_us);
    assert!(child.start_us >= root.start_us);
}

#[test]
fn kernel_counters_are_exact_for_a_known_matrix() {
    let _guard = traced();
    let w = bsp_weight(32, 24);
    let bspc = BspcMatrix::from_dense(&w, 4, 3).expect("valid partition");
    let rows = bspc.kept_rows().len() as u64;
    let nnz = bspc.stored_len() as u64;
    assert!(nnz > 0, "test matrix must have nonzeros");
    let x = vec![0.5f32; 24];
    let mut y = vec![0.0f32; 32];

    let reg = rtm_trace::global();

    // One serial call: exactly one dispatch, `rows` rows, `nnz` values.
    bspc.spmv_prec_into(Precision::F32, &x, &mut y).unwrap();
    assert_eq!(reg.counter("kernel.spmv.bspc"), 1);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_ROWS), rows);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_NNZ), nnz);

    // The executor entry point counts the same keys once per call — its
    // internal chunk kernels are deliberately uncounted, so serial and
    // parallel execution of the same call sequence agree exactly.
    for threads in [1usize, 3] {
        let exec = Executor::new(threads);
        exec.spmv_into(&bspc, Precision::F32, &x, &mut y).unwrap();
    }
    assert_eq!(reg.counter("kernel.spmv.bspc"), 3);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_ROWS), 3 * rows);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_NNZ), 3 * nnz);

    // Batched SpMM: one call regardless of lane count; rows/nnz count the
    // weight walk (once per call), not per lane.
    let b = 4;
    let xs = vec![0.25f32; 24 * b];
    let mut ys = vec![0.0f32; 32 * b];
    bspc.spmm_prec_into(Precision::F32, &xs, b, &mut ys)
        .unwrap();
    assert_eq!(reg.counter("kernel.spmm.bspc"), 1);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_ROWS), 4 * rows);
    assert_eq!(reg.counter(rtm_trace::key::KERNEL_NNZ), 4 * nnz);

    rtm_trace::set_config(TraceConfig::off());
}

#[test]
fn serial_and_pooled_counters_agree_for_every_format_precision_and_batch() {
    let _guard = traced();
    let w = bsp_weight(32, 24);
    let bspc = BspcMatrix::from_dense(&w, 4, 3).expect("valid partition");
    let csr = CsrMatrix::from_dense(&w);
    let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
    let reg = rtm_trace::global();
    let kernel_counters = || -> Vec<(String, u64)> {
        let counters = reg.counters();
        counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("kernel."))
            .collect()
    };
    let pools = [Executor::new(1), Executor::new(3)];

    for k in formats {
        for prec in [Precision::F32, Precision::F16, Precision::Int8] {
            for b in [0usize, 1, 3] {
                let xs = vec![0.25f32; 24 * b];
                let mut ys = vec![0.0f32; 32 * b];

                reg.reset();
                k.spmm_prec_into(prec, &xs, b, &mut ys).unwrap();
                if b == 1 {
                    k.spmv_prec_into(prec, &xs, &mut ys).unwrap();
                }
                let serial = kernel_counters();

                // The emitted names are the documented literals, and the
                // empty product counts nothing.
                let calls = |op: &str| {
                    let base = format!("kernel.{op}.{}", k.tag());
                    let by_precision = format!("{base}.{}", prec.tag());
                    (reg.counter(&base), reg.counter(&by_precision))
                };
                let n = u64::from(b > 0);
                assert_eq!(calls("spmm"), (n, n), "{} {prec:?} b={b}", k.tag());
                assert_eq!(calls("spmv"), (u64::from(b == 1), u64::from(b == 1)));
                assert_eq!(serial.is_empty(), b == 0);

                for exec in &pools {
                    reg.reset();
                    exec.spmm_into(k, prec, &xs, b, &mut ys).unwrap();
                    if b == 1 {
                        exec.spmv_into(k, prec, &xs, &mut ys).unwrap();
                    }
                    assert_eq!(
                        kernel_counters(),
                        serial,
                        "{} {prec:?} b={b} at {} threads",
                        k.tag(),
                        exec.threads()
                    );
                }
            }
        }
    }
    rtm_trace::set_config(TraceConfig::off());
}

#[test]
fn serial_and_pooled_dense_counters_agree_at_every_lane_count() {
    let _guard = traced();
    let w = bsp_weight(32, 24);
    let reg = rtm_trace::global();
    let kernel_counters = || -> Vec<(String, u64)> {
        let counters = reg.counters();
        counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("kernel."))
            .collect()
    };
    let pools = [Executor::new(1), Executor::new(3)];

    for b in [0usize, 1, 3] {
        let xs = vec![0.25f32; 24 * b];
        let mut ys = vec![0.0f32; 32 * b];

        reg.reset();
        rtm_tensor::gemm::gemv_batch_into(&w, &xs, b, &mut ys).unwrap();
        let serial = kernel_counters();
        // The empty product counts nothing; one lane is a GEMV.
        assert_eq!(serial.is_empty(), b == 0);
        let gemv = reg.counter(rtm_trace::key::GEMV_DENSE);
        let gemm = reg.counter(rtm_trace::key::GEMM_DENSE);
        assert_eq!((gemv, gemm), (u64::from(b == 1), u64::from(b > 1)), "b={b}");

        for exec in &pools {
            reg.reset();
            exec.gemm_dense_into(&w, &xs, b, &mut ys).unwrap();
            assert_eq!(
                kernel_counters(),
                serial,
                "b={b} at {} threads",
                exec.threads()
            );
        }
    }
    rtm_trace::set_config(TraceConfig::off());
}

#[test]
fn single_stream_forward_counts_spmv_and_gemv_only() {
    let _guard = traced();
    // Past two 16-frame chunks and into a third; at hidden 16 and at
    // hidden 64, whose gates cut into full 16-row tiles.
    let (layers, frames_n) = (2u64, 37u64);
    let reg = rtm_trace::global();
    for hidden in [16usize, 64] {
        let net = GruNetwork::new(
            &NetworkConfig {
                input_dim: 6,
                hidden_dims: vec![hidden; layers as usize],
                num_classes: 5,
            },
            77,
        );
        let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
        let frames: Vec<Vec<f32>> = (0..frames_n)
            .map(|t| (0..6).map(|i| ((t * 6 + i) as f32 * 0.37).sin()).collect())
            .collect();
        for threads in [1usize, 3] {
            reg.reset();
            compiled.forward_with(&Executor::new(threads), &frames);
            let what = format!("hidden {hidden}, {threads} threads");
            assert_eq!(
                reg.counter("kernel.spmv.bspc"),
                6 * layers * frames_n,
                "{what}"
            );
            assert_eq!(
                reg.counter("kernel.spmv.bspc.f16"),
                6 * layers * frames_n,
                "{what}"
            );
            assert_eq!(reg.counter(rtm_trace::key::GEMV_DENSE), frames_n, "{what}");
            assert_eq!(reg.counter(rtm_trace::key::GEMM_DENSE), 0, "{what}");
            let batched: Vec<String> = reg
                .counters()
                .into_iter()
                .map(|(name, _)| name)
                .filter(|name| name.starts_with("kernel.spmm."))
                .collect();
            assert!(batched.is_empty(), "{what}: {batched:?}");
        }
    }
    rtm_trace::set_config(TraceConfig::off());
}

#[test]
fn histograms_are_deterministic() {
    let values: Vec<f64> = (0..1000).map(|i| 0.5 + (i % 97) as f64 * 3.25).collect();
    let mut snapshots = Vec::new();
    for _ in 0..2 {
        let _guard = traced();
        let reg = rtm_trace::global();
        for &v in &values {
            reg.hist_record("test.hist", v);
        }
        let snap = reg.hist("test.hist").expect("recorded");
        let json = reg.metrics_json();
        rtm_trace::set_config(TraceConfig::off());
        snapshots.push((snap, json));
        // Locks are not held across iterations; the registry is re-reset.
    }
    assert_eq!(snapshots[0].0, snapshots[1].0);
    assert_eq!(snapshots[0].1, snapshots[1].1);
    let snap = &snapshots[0].0;
    assert_eq!(snap.count, 1000);
    assert!(snap.min >= 0.5 && snap.max <= 97.0 * 3.25 + 0.5);
    assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
}

#[test]
fn tracing_off_leaves_outputs_bit_identical() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![16],
            num_classes: 5,
        },
        77,
    );
    let compiled = CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F16).unwrap();
    let exec = Executor::new(2);
    let frames: Vec<Vec<f32>> = (0..9)
        .map(|t| (0..6).map(|i| ((t * 6 + i) as f32 * 0.37).sin()).collect())
        .collect();

    for policy in [
        SimdPolicy::Auto,
        SimdPolicy::Fixed(Variant::ScalarU1),
        SimdPolicy::Fixed(Variant::Vector),
    ] {
        rtm_tensor::simd::set_policy(policy);
        rtm_trace::set_config(TraceConfig::off());
        let untraced: Vec<Vec<u32>> = compiled
            .forward_with(&exec, &frames)
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        rtm_trace::set_config(TraceConfig::on());
        rtm_trace::global().reset();
        let traced: Vec<Vec<u32>> = compiled
            .forward_with(&exec, &frames)
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect();
        rtm_trace::set_config(TraceConfig::off());
        assert_eq!(untraced, traced, "policy {policy:?}");
        // And the traced run did record kernel activity.
        assert!(rtm_trace::global().counter(rtm_trace::key::KERNEL_NNZ) > 0);
    }
    rtm_tensor::simd::set_policy(SimdPolicy::Auto);
}
