//! Cross-crate integration: the parallel execution engine drives the whole
//! deployed stack — rtm-exec kernels and the rtmobile compiled runtime —
//! and every parallel path stays bit-identical to its serial counterpart
//! for every thread count.

use rtm_exec::Executor;
use rtm_rnn::model::NetworkConfig;
use rtm_rnn::GruNetwork;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::rng::StdRng;
use rtm_tensor::{gemm, Matrix};
use rtmobile::deploy::{BatchedSession, CompiledNetwork, RuntimePrecision};

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn bsp_weight(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let keep: Vec<bool> = (0..cols).map(|_| rng.gen_f32() < 0.4).collect();
    Matrix::from_fn(rows, cols, |r, c| {
        if keep[c] {
            0.1 + ((r * 7 + c * 3) % 23) as f32 / 10.0
        } else {
            0.0
        }
    })
}

/// Pooled f32 SpMV into a dirty buffer (every row must be written).
fn pooled_spmv(exec: &Executor, k: &dyn SparseKernel, x: &[f32]) -> Vec<f32> {
    let mut y = vec![f32::NAN; k.rows()];
    exec.spmv_into(k, Precision::F32, x, &mut y).unwrap();
    y
}

#[test]
fn executor_matches_serial_for_all_formats() {
    // Cross-crate form of rtm-exec's generic equivalence check (which also
    // holds every format against an independent dense oracle): through the
    // one generic entry, both formats × all three precisions are
    // bit-identical between the serial driver and the pool, SpMV and SpMM.
    let w = bsp_weight(96, 64, 3);
    let bspc = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
    let mut rng = StdRng::seed_from_u64(9);
    let b = 3;
    let xs: Vec<f32> = (0..64 * b).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let x = &xs[..64];
    let execs = THREADS.map(Executor::new);
    for k in formats {
        for prec in [Precision::F32, Precision::F16, Precision::Int8] {
            let mut serial = vec![f32::NAN; 96];
            k.spmv_prec_into(prec, x, &mut serial).unwrap();
            let mut serial_mm = vec![f32::NAN; 96 * b];
            k.spmm_prec_into(prec, &xs, b, &mut serial_mm).unwrap();
            for exec in &execs {
                let what = format!("{} {prec:?}, {} threads", k.tag(), exec.threads());
                let mut y = vec![f32::NAN; 96];
                exec.spmv_into(k, prec, x, &mut y).unwrap();
                assert_eq!(y, serial, "{what}");
                let mut ys = vec![f32::NAN; 96 * b];
                exec.spmm_into(k, prec, &xs, b, &mut ys).unwrap();
                assert_eq!(ys, serial_mm, "{what}");
            }
        }
    }
}

/// BSP shapes whose kept rows meet every edge a row grouping can have:
/// 13-row stripes (the last one 9) that no register width divides, and
/// 40-row stripes whose pruned rows leave runs of 1, 2 and 20 kept rows, a
/// stripe with a single kept row, and one losing every ninth row.
fn tile_edge_matrices() -> Vec<BspcMatrix> {
    let weight = |rows: usize, cols: usize, stripes: usize, keep_row: &dyn Fn(usize) -> bool| {
        let stripe_h = rows.div_ceil(stripes);
        Matrix::from_fn(rows, cols, |r, c| {
            let s = r / stripe_h;
            if keep_row(r) && (c + s).is_multiple_of(2 + s) {
                let v = 0.1 + ((r * 7 + c * 3) % 23) as f32 / 10.0;
                if (r + c).is_multiple_of(2) {
                    v
                } else {
                    -v
                }
            } else {
                0.0
            }
        })
    };
    let every_height = weight(100, 70, 8, &|_| true);
    let runs = weight(120, 40, 3, &|r| match r {
        0..40 => !matches!(r, 1 | 4 | 25..),
        40..80 => r == 57,
        _ => r % 9 != 0,
    });
    vec![
        BspcMatrix::from_dense(&every_height, 8, 3).unwrap(),
        BspcMatrix::from_dense(&runs, 3, 2).unwrap(),
    ]
}

#[test]
fn pooled_cuts_match_serial_on_every_tile_edge() {
    // Thread counts that cut the unit range at odd places: whatever a
    // partition unit is, a chunk boundary must fall between two of them and
    // every chunk must write exactly its own output rows.
    let execs = [3usize, 5].map(Executor::new);
    let mut rng = StdRng::seed_from_u64(41);
    for (shape, m) in tile_edge_matrices().iter().enumerate() {
        for b in [1usize, 2, 8, 12] {
            let xs: Vec<f32> = (0..m.cols() * b)
                .map(|_| rng.gen_f32() * 2.0 - 1.0)
                .collect();
            for prec in [Precision::F32, Precision::F16, Precision::Int8] {
                let mut serial = vec![f32::NAN; m.rows() * b];
                m.spmm_prec_into(prec, &xs, b, &mut serial).unwrap();
                for exec in &execs {
                    let what = format!("shape {shape} {prec:?} b={b}, {} threads", exec.threads());
                    let mut ys = vec![f32::NAN; m.rows() * b];
                    exec.spmm_into(m, prec, &xs, b, &mut ys).unwrap();
                    assert_eq!(ys, serial, "spmm {what}");
                    if b == 1 {
                        let mut y = vec![f32::NAN; m.rows()];
                        exec.spmv_into(m, prec, &xs, &mut y).unwrap();
                        assert_eq!(y, serial, "spmv {what}");
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_network_parallel_inference_bit_exact() {
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12, 12],
            num_classes: 4,
        },
        11,
    );
    let frames: Vec<Vec<f32>> = (0..7)
        .map(|t| {
            (0..6)
                .map(|i| ((t * 6 + i) as f32 * 0.3).sin() * 0.5)
                .collect()
        })
        .collect();
    for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
        let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
        let serial = compiled.forward(&frames);
        for threads in THREADS {
            let exec = Executor::new(threads);
            assert_eq!(
                compiled.forward_with(&exec, &frames),
                serial,
                "{precision:?}, {threads} threads"
            );
        }
    }
}

#[test]
fn scalar_policy_env_keeps_parallel_bit_exactness() {
    use rtm_tensor::simd::{self, SimdPolicy, Variant};
    // Under CI's second pass (`RTM_SIMD=off`) the dispatcher must resolve to
    // the pre-SIMD reference kernel — re-proving this suite's serial-vs-
    // parallel guarantees on the exact arithmetic the seed repo shipped.
    // This test only *reads* the policy; mutating it here would race the
    // other tests in this binary.
    let env_pins_scalar = std::env::var("RTM_SIMD")
        .ok()
        .and_then(|s| simd::parse_policy(&s))
        == Some(SimdPolicy::Fixed(Variant::ScalarU1));
    if env_pins_scalar {
        assert_eq!(simd::policy(), SimdPolicy::Fixed(Variant::ScalarU1));
        assert_eq!(simd::active_variant(), Variant::ScalarU1);
    }
    // Whatever the ambient policy resolved to, every parallel path must stay
    // bit-identical to its serial counterpart.
    let w = bsp_weight(64, 48, 17);
    let bspc = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    let x: Vec<f32> = (0..48).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let serial = bspc.spmv(&x).unwrap();
    for threads in THREADS {
        let exec = Executor::new(threads);
        assert_eq!(
            pooled_spmv(&exec, &bspc, &x),
            serial,
            "{threads} threads (variant {})",
            simd::active_variant().name()
        );
    }
}

#[test]
fn batched_engine_lanes_match_serial_spmv_for_all_threads() {
    // The parallel SpMM path (reorder-group-nnz partitioning, batched row
    // kernels) must keep the lane contract at every thread count: lane `j`
    // of the batched result is bit-identical to the serial single-vector
    // matvec of input column `j`.
    let w = bsp_weight(96, 64, 21);
    let bspc = BspcMatrix::from_dense(&w, 4, 4).unwrap();
    let csr = CsrMatrix::from_dense(&w);
    let mut rng = StdRng::seed_from_u64(33);
    for b in [1usize, 3, 8] {
        let xs: Vec<f32> = (0..64 * b).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let cols_of: Vec<Vec<f32>> = (0..b)
            .map(|j| (0..64).map(|k| xs[k * b + j]).collect())
            .collect();
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);

            let mut ys = vec![f32::NAN; 96 * b];
            exec.spmm_into(&bspc, Precision::F32, &xs, b, &mut ys)
                .unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let want = bspc.spmv(col).unwrap();
                for (i, &wi) in want.iter().enumerate() {
                    assert_eq!(ys[i * b + j], wi, "bspc b={b} lane {j}, {threads} threads");
                }
            }

            let mut ys = vec![f32::NAN; 96 * b];
            exec.spmm_into(&csr, Precision::F32, &xs, b, &mut ys)
                .unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let want = csr.spmv(col).unwrap();
                for (i, &wi) in want.iter().enumerate() {
                    assert_eq!(ys[i * b + j], wi, "csr b={b} lane {j}, {threads} threads");
                }
            }

            let mut ys = vec![f32::NAN; 96 * b];
            exec.gemm_dense_into(&w, &xs, b, &mut ys).unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let mut want = vec![f32::NAN; 96];
                gemm::gemv_into(&w, col, &mut want).unwrap();
                for (i, &wi) in want.iter().enumerate() {
                    assert_eq!(ys[i * b + j], wi, "dense b={b} lane {j}, {threads} threads");
                }
            }
        }
    }
}

#[test]
fn batched_session_matches_serial_predict_across_threads() {
    // End-to-end: the multi-stream scheduler (admit/park/retire with lane
    // compaction) over the parallel engine reproduces serial per-utterance
    // predictions exactly, for both precisions and every thread count.
    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 6,
            hidden_dims: vec![12, 12],
            num_classes: 4,
        },
        31,
    );
    let lens = [5usize, 2, 7, 1, 3];
    let streams: Vec<Vec<Vec<f32>>> = lens
        .iter()
        .enumerate()
        .map(|(s, &len)| {
            (0..len)
                .map(|t| {
                    (0..6)
                        .map(|i| (((s * 37 + t * 6 + i) as f32) * 0.23).sin() * 0.6)
                        .collect()
                })
                .collect()
        })
        .collect();
    for precision in [RuntimePrecision::F32, RuntimePrecision::F16] {
        let compiled = CompiledNetwork::compile(&net, 4, 4, precision).unwrap();
        for threads in [1usize, 2, 4] {
            let exec = Executor::new(threads);
            let serial: Vec<Vec<usize>> = streams
                .iter()
                .map(|s| compiled.predict_with(&exec, s))
                .collect();
            let mut session = BatchedSession::new(&compiled, &exec, 3);
            assert_eq!(
                session.predict(&streams),
                serial,
                "{precision:?}, {threads} threads"
            );
        }
    }
}

#[test]
fn one_executor_serves_the_whole_stack() {
    // A single pool handle is reused across raw SpMV and compiled
    // inference — the deployment shape (one pool per process).
    let exec = Executor::new(3);
    let w = bsp_weight(32, 24, 1);
    let bspc = BspcMatrix::from_dense(&w, 2, 2).unwrap();
    let x = vec![0.25f32; 24];
    assert_eq!(pooled_spmv(&exec, &bspc, &x), bspc.spmv(&x).unwrap());

    let net = GruNetwork::new(
        &NetworkConfig {
            input_dim: 4,
            hidden_dims: vec![8],
            num_classes: 2,
        },
        3,
    );
    let compiled = CompiledNetwork::compile(&net, 2, 2, RuntimePrecision::F32).unwrap();
    let frames = vec![vec![0.1f32, -0.2, 0.3, -0.4]; 5];
    assert_eq!(
        compiled.predict_with(&exec, &frames),
        compiled.predict(&frames)
    );
}
