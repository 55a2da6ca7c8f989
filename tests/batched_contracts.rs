//! Dimension-mismatch contracts of the batched public APIs: a caller who
//! hands lane-major buffers of the wrong width gets a typed error (or a
//! documented panic) *before* any kernel runs — never UB, never silent
//! truncation, never partially-written garbage passed off as a result.

use rtm_exec::{ExecError, Executor};
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::Matrix;
use rtmobile::deploy::{CompiledNetwork, GruRuntimeScratch, RuntimePrecision};

fn weight(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        if c % 3 == 0 {
            0.1 + ((r * 5 + c) % 11) as f32 / 7.0
        } else {
            0.0
        }
    })
}

fn compiled() -> CompiledNetwork {
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12],
            num_classes: 4,
        },
        41,
    );
    CompiledNetwork::compile(&net, 4, 4, RuntimePrecision::F32).unwrap()
}

#[test]
fn sparse_spmm_into_rejects_mismatched_lane_buffers() {
    let w = weight(24, 18);
    let bspc = BspcMatrix::from_dense(&w, 4, 3).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    let b = 4;
    let good_x = vec![0.5f32; 18 * b];
    let mut good_y = vec![0.0f32; 24 * b];
    assert!(bspc
        .spmm_prec_into(Precision::F32, &good_x, b, &mut good_y)
        .is_ok());
    assert!(csr
        .spmm_prec_into(Precision::F32, &good_x, b, &mut good_y)
        .is_ok());
    // Wrong input width, wrong output width, wrong lane count: all typed
    // errors, and the output buffer length is never "fixed up" silently.
    for (xs_len, ys_len, lanes) in [
        (18 * b - 1, 24 * b, b),
        (18 * b, 24 * b + 3, b),
        (18 * (b - 1), 24 * b, b),
        (18 * b, 24 * b, b + 1),
    ] {
        let xs = vec![0.5f32; xs_len];
        let mut ys = vec![0.0f32; ys_len];
        assert!(
            bspc.spmm_prec_into(Precision::F32, &xs, lanes, &mut ys)
                .is_err(),
            "bspc {xs_len}/{ys_len}/{lanes}"
        );
        assert!(
            csr.spmm_prec_into(Precision::F32, &xs, lanes, &mut ys)
                .is_err(),
            "csr {xs_len}/{ys_len}/{lanes}"
        );
        assert_eq!(ys.len(), ys_len, "buffer length untouched");
    }
}

#[test]
fn executor_batched_kernels_reject_mismatches_before_dispatch() {
    let w = weight(24, 18);
    let bspc = BspcMatrix::from_dense(&w, 4, 3).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    let b = 3;
    for threads in [1usize, 4] {
        let exec = Executor::new(threads);
        let xs = vec![0.25f32; 18 * b];
        let mut ys = vec![0.0f32; 24 * b];
        assert!(exec
            .spmm_into(&bspc, Precision::F32, &xs, b, &mut ys)
            .is_ok());
        assert!(exec
            .spmm_into(&csr, Precision::F32, &xs, b, &mut ys)
            .is_ok());
        assert!(exec.gemm_dense_into(&w, &xs, b, &mut ys).is_ok());

        let short_x = vec![0.25f32; 18 * b - 2];
        let mut short_y = vec![0.0f32; 24 * b - 2];
        let probes: [Result<(), ExecError>; 6] = [
            exec.spmm_into(&bspc, Precision::F32, &short_x, b, &mut ys),
            exec.spmm_into(&bspc, Precision::F32, &xs, b, &mut short_y),
            exec.spmm_into(&csr, Precision::F32, &short_x, b, &mut ys),
            exec.spmm_into(&csr, Precision::F32, &xs, b, &mut short_y),
            exec.gemm_dense_into(&w, &short_x, b, &mut ys),
            exec.gemm_dense_into(&w, &xs, b, &mut short_y),
        ];
        for (i, r) in probes.into_iter().enumerate() {
            let err = r.expect_err("probe must fail");
            assert!(
                matches!(err, ExecError::Shape(_)),
                "probe {i} at {threads} threads: {err:?}"
            );
        }
        // The pool is untouched by rejected calls: a good call still works
        // and matches serial bit for bit.
        let mut clean = vec![0.0f32; 24 * b];
        exec.spmm_into(&bspc, Precision::F32, &xs, b, &mut clean)
            .unwrap();
        assert_eq!(clean, bspc.spmm(&xs, b).unwrap());
    }
}

#[test]
fn step_batch_into_rejects_wrong_lane_widths() {
    let net = compiled();
    let layer = &net.layers()[0];
    let exec = Executor::new(2);
    let b = 4;
    let mut scratch = GruRuntimeScratch::new();
    let mut hs_out = Vec::new();
    let xs = vec![0.1f32; 6 * b];
    let hs = vec![0.0f32; 12 * b];
    assert!(layer
        .step_batch_into(
            &exec,
            &xs,
            &hs,
            b,
            RuntimePrecision::F32,
            &mut scratch,
            &mut hs_out
        )
        .is_ok());
    assert_eq!(hs_out.len(), 12 * b);

    // Wrong input width and wrong hidden width both surface as Shape.
    let bad_xs = vec![0.1f32; 6 * b - 1];
    let err = layer
        .step_batch_into(
            &exec,
            &bad_xs,
            &hs,
            b,
            RuntimePrecision::F32,
            &mut scratch,
            &mut hs_out,
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::Shape(_)), "{err:?}");

    let bad_hs = vec![0.0f32; 12 * (b + 1)];
    let err = layer
        .step_batch_into(
            &exec,
            &xs,
            &bad_hs,
            b,
            RuntimePrecision::F32,
            &mut scratch,
            &mut hs_out,
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::Shape(_)), "{err:?}");
}

#[test]
fn forward_frame_batch_rejects_mismatched_activation_planes() {
    let net = compiled();
    let exec = Executor::new(2);
    let b = 3;
    let mut scratch = GruRuntimeScratch::new();
    let mut hs_next = Vec::new();
    let mut logits = Vec::new();

    let mut xs = vec![0.2f32; 6 * b];
    let mut states = vec![vec![0.0f32; 12 * b]];
    assert!(net
        .forward_frame_batch(
            &exec,
            &mut xs,
            b,
            &mut states,
            &mut scratch,
            &mut hs_next,
            &mut logits
        )
        .is_ok());
    assert_eq!(logits.len(), 4 * b);

    // Wrong frame width: typed error, nothing silently truncated.
    let mut bad_xs = vec![0.2f32; 6 * b + 1];
    let err = net
        .forward_frame_batch(
            &exec,
            &mut bad_xs,
            b,
            &mut states,
            &mut scratch,
            &mut hs_next,
            &mut logits,
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::Shape(_)), "{err:?}");

    // Wrong state plane width for the declared lane count.
    let mut xs = vec![0.2f32; 6 * b];
    let mut bad_states = vec![vec![0.0f32; 12 * (b - 1)]];
    let err = net
        .forward_frame_batch(
            &exec,
            &mut xs,
            b,
            &mut bad_states,
            &mut scratch,
            &mut hs_next,
            &mut logits,
        )
        .unwrap_err();
    assert!(matches!(err, ExecError::Shape(_)), "{err:?}");
}

#[test]
fn session_mismatched_stream_dims_panic_contract() {
    // BatchedSession documents a panic (not UB) when streams disagree on
    // the frame dimension mid-batch.
    let net = compiled();
    let exec = Executor::new(1);
    let good: Vec<Vec<f32>> = (0..3).map(|_| vec![0.1f32; 6]).collect();
    let bad: Vec<Vec<f32>> = (0..3).map(|_| vec![0.1f32; 5]).collect();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut session = rtmobile::deploy::BatchedSession::new(&net, &exec, 2);
        session.run(&[good, bad])
    }));
    let payload = result.unwrap_err();
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(message.contains("frame dim mismatch"), "{message}");
}
