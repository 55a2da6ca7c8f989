//! Differential suite for the SIMD kernel layer (`rtm_tensor::simd`).
//!
//! Every test here uses the explicit `*_variant` entry points or reads the
//! ambient [`active_variant`](rtm_tensor::simd::active_variant) — **none of
//! them mutate the process-global policy**, so the whole binary is safe
//! under cargo's parallel test threads and proves the contract under
//! whatever policy CI pinned (`scripts/ci.sh` runs it twice: default and
//! `RTM_SIMD=off`).
//!
//! Contract being checked (see the `simd` module docs):
//! * `scalar-u1` is the scalar definition — single accumulator,
//!   left-to-right association — every bound below is stated against;
//! * the `vector` reduction stays within `4 · ulp(Σ|termᵢ|)` of `scalar-u1`
//!   (ULPs measured at the *accumulation magnitude*, the only sound scale
//!   under cancellation);
//! * element-wise kernels and the activation sweeps are bit-identical in
//!   every variant;
//! * the dispatched matrix kernels (dense `gemv_into`, CSR `spmv_into`)
//!   are row-for-row bit-identical with the corresponding `*_variant`
//!   kernel at [`active_variant`](rtm_tensor::simd::active_variant) — i.e.
//!   dispatch hoisting never changes the arithmetic.

use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::rng::StdRng;
use rtm_tensor::simd::{
    self, axpy_variant, dot_batch_variant, dot_variant, hadamard_into_variant,
    indexed_dot_batch_variant, indexed_dot_variant, sigmoid_sweep_variant, tanh_sweep_variant,
    ulp_at, Variant,
};
use rtm_tensor::{gemm, Matrix};

/// Shape matrix with ragged tails around every vector-width boundary (8
/// lanes on AVX2, 16 with AVX-512), plus large GRU-realistic sizes.
const SHAPES: [usize; 22] = [
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 1000, 1024, 1037,
];

fn rand_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    // Mixed-sign: exercises cancellation, the regime where a result-relative
    // ULP bound would be unsound and the accumulation-magnitude bound matters.
    (0..n).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()
}

/// BSP-patterned sparse test weight: ~40% of columns kept.
fn bsp_weight(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let keep: Vec<bool> = (0..cols).map(|_| rng.gen_f32() < 0.4).collect();
    Matrix::from_fn(rows, cols, |r, c| {
        if keep[c] {
            (rng_free(r, c) - 0.5) * 1.6
        } else {
            0.0
        }
    })
}

/// Deterministic mixed-sign value without threading an RNG through
/// `Matrix::from_fn`'s `Fn` closure.
fn rng_free(r: usize, c: usize) -> f32 {
    ((r * 31 + c * 17) % 101) as f32 / 101.0
}

#[test]
fn dot_differential_across_shape_matrix() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for n in SHAPES {
        let a = rand_vec(n, &mut rng);
        let b = rand_vec(n, &mut rng);
        let want = dot_variant(Variant::ScalarU1, &a, &b);
        // Vector reassociates: bounded at the accumulation magnitude.
        let mag: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let got = dot_variant(Variant::Vector, &a, &b);
        assert!(
            (got - want).abs() <= 4.0 * ulp_at(mag),
            "vector dot n={n}: {got} vs {want} (mag {mag})"
        );
    }
}

#[test]
fn indexed_dot_differential_across_shape_matrix() {
    let mut rng = StdRng::seed_from_u64(0x1D07);
    let x = rand_vec(1200, &mut rng);
    for n in SHAPES {
        let vals = rand_vec(n, &mut rng);
        let mut idx: Vec<u32> = (0..n).map(|_| rng.next_u32() % 1200).collect();
        idx.sort_unstable();
        let want = indexed_dot_variant(Variant::ScalarU1, &vals, &idx, &x);
        let mag: f32 = vals
            .iter()
            .zip(&idx)
            .map(|(&w, &c)| (w * x[c as usize]).abs())
            .sum();
        let got = indexed_dot_variant(Variant::Vector, &vals, &idx, &x);
        assert!(
            (got - want).abs() <= 4.0 * ulp_at(mag),
            "vector indexed dot nnz={n}: {got} vs {want} (mag {mag})"
        );
    }
}

#[test]
fn elementwise_kernels_differential() {
    let mut rng = StdRng::seed_from_u64(0xE1E);
    for n in SHAPES {
        let x = rand_vec(n, &mut rng);
        let y0 = rand_vec(n, &mut rng);
        let b = rand_vec(n, &mut rng);

        let mut want = y0.clone();
        axpy_variant(Variant::ScalarU1, -0.73, &x, &mut want);
        // Vector axpy contracts mul+add into one FMA: per-element bound.
        let mut y = y0.clone();
        axpy_variant(Variant::Vector, -0.73, &x, &mut y);
        for i in 0..n {
            let mag = (0.73 * x[i]).abs().max(y0[i].abs());
            assert!(
                (y[i] - want[i]).abs() <= 4.0 * ulp_at(mag),
                "vector axpy n={n} i={i}"
            );
        }

        // Hadamard: one correctly-rounded multiply — exact in all variants.
        let mut out_want = vec![0.0f32; n];
        hadamard_into_variant(Variant::ScalarU1, &x, &b, &mut out_want);
        for v in Variant::ALL {
            let mut out = vec![f32::NAN; n];
            hadamard_into_variant(v, &x, &b, &mut out);
            assert_eq!(out, out_want, "hadamard {} n={n}", v.name());
        }
    }
}

#[test]
fn activation_sweeps_bit_identical_in_every_variant() {
    let mut rng = StdRng::seed_from_u64(0xAC7);
    for n in SHAPES {
        let base: Vec<f32> = (0..n).map(|_| rng.gen_f32() * 8.0 - 4.0).collect();
        let mut want_s = base.clone();
        sigmoid_sweep_variant(Variant::ScalarU1, &mut want_s);
        let mut want_t = base.clone();
        tanh_sweep_variant(Variant::ScalarU1, &mut want_t);
        for v in Variant::ALL {
            let mut s = base.clone();
            sigmoid_sweep_variant(v, &mut s);
            assert_eq!(s, want_s, "sigmoid {} n={n}", v.name());
            let mut t = base.clone();
            tanh_sweep_variant(v, &mut t);
            assert_eq!(t, want_t, "tanh {} n={n}", v.name());
        }
    }
}

#[test]
fn dispatched_gemv_rows_are_the_active_variant_dot() {
    // Dispatch hoisting (resolving the variant once per matrix, not once per
    // row) must not change any row's arithmetic: each output element is the
    // active variant's dot of that row, bit for bit. Holds under any policy,
    // so both CI passes prove their respective variant.
    let mut rng = StdRng::seed_from_u64(0x6E3);
    let active = simd::active_variant();
    for (rows, cols) in [(1usize, 1usize), (7, 5), (33, 47), (64, 96), (17, 129)] {
        let a = Matrix::from_fn(rows, cols, |r, c| (rng_free(r, c) - 0.5) * 2.0);
        let x = rand_vec(cols, &mut rng);
        let mut y = vec![f32::NAN; rows];
        gemm::gemv_into(&a, &x, &mut y).unwrap();
        for (r, &yr) in y.iter().enumerate() {
            assert_eq!(
                yr,
                dot_variant(active, a.row(r), &x),
                "row {r} of {rows}x{cols} under {}",
                active.name()
            );
        }
    }
}

#[test]
fn dispatched_csr_spmv_rows_are_the_active_variant_indexed_dot() {
    let mut rng = StdRng::seed_from_u64(0xC52);
    let active = simd::active_variant();
    for (rows, cols, seed) in [(33usize, 47usize, 1u64), (64, 96, 2), (17, 129, 3)] {
        let dense = bsp_weight(rows, cols, seed);
        let csr = CsrMatrix::from_dense(&dense);
        let x = rand_vec(cols, &mut rng);
        let mut y = vec![f32::NAN; rows];
        csr.spmv_prec_into(Precision::F32, &x, &mut y).unwrap();
        for (r, &yr) in y.iter().enumerate() {
            let (idx, vals): (Vec<u32>, Vec<f32>) =
                csr.row_entries(r).map(|(c, w)| (c as u32, w)).unzip();
            assert_eq!(
                yr,
                indexed_dot_variant(active, &vals, &idx, &x),
                "row {r} of {rows}x{cols} under {}",
                active.name()
            );
        }
    }
}

#[test]
fn batched_dot_lanes_match_serial_dot_bit_exact() {
    // The SpMM building block's lane contract: lane `j` of the batched dot
    // is bit-identical to the serial dot of column `j`, in *every* variant —
    // the scalar batch kernel preserves the single-accumulator chain, and
    // the vector batch kernel replays the vector reduction tree per lane.
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for n in [0usize, 1, 3, 8, 17, 64, 255, 1024] {
        for b in [1usize, 2, 3, 4, 7, 8, 16] {
            let a = rand_vec(n, &mut rng);
            let xs = rand_vec(n * b, &mut rng);
            for v in Variant::ALL {
                let mut out = vec![f32::NAN; b];
                dot_batch_variant(v, &a, &xs, b, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let col: Vec<f32> = (0..n).map(|k| xs[k * b + j]).collect();
                    assert_eq!(
                        got,
                        dot_variant(v, &a, &col),
                        "{} n={n} b={b} lane {j}",
                        v.name()
                    );
                }
            }
        }
    }
}

#[test]
fn batched_indexed_dot_lanes_match_serial_bit_exact() {
    let mut rng = StdRng::seed_from_u64(0xBA1D);
    let width = 600usize;
    for n in [0usize, 1, 5, 16, 33, 255] {
        for b in [1usize, 2, 4, 8, 11] {
            let vals = rand_vec(n, &mut rng);
            let mut idx: Vec<u32> = (0..n).map(|_| rng.next_u32() % width as u32).collect();
            idx.sort_unstable();
            let xs = rand_vec(width * b, &mut rng);
            for v in Variant::ALL {
                let mut out = vec![f32::NAN; b];
                indexed_dot_batch_variant(v, &vals, &idx, &xs, b, &mut out);
                for (j, &got) in out.iter().enumerate() {
                    let col: Vec<f32> = (0..width).map(|k| xs[k * b + j]).collect();
                    assert_eq!(
                        got,
                        indexed_dot_variant(v, &vals, &idx, &col),
                        "{} nnz={n} b={b} lane {j}",
                        v.name()
                    );
                }
            }
        }
    }
}

#[test]
fn spmm_columns_match_spmv_exactly_in_every_format() {
    // Under the ambient policy (no `set_policy` — both CI passes prove their
    // own variant): for dense, CSR and BSPC, column `j` of the batched
    // matmul equals the serial matvec of input column `j`, bit for bit.
    let mut rng = StdRng::seed_from_u64(0x59AA);
    for (rows, cols, seed) in [(32usize, 48usize, 11u64), (64, 64, 12), (96, 40, 13)] {
        let dense = bsp_weight(rows, cols, seed);
        let bspc = BspcMatrix::from_dense(&dense, 4, 4).unwrap();
        let csr = CsrMatrix::from_dense(&dense);
        for b in [1usize, 2, 5, 8] {
            let xs = rand_vec(cols * b, &mut rng);
            let cols_of: Vec<Vec<f32>> = (0..b)
                .map(|j| (0..cols).map(|k| xs[k * b + j]).collect())
                .collect();

            let mut ys = vec![f32::NAN; rows * b];
            gemm::gemv_batch_into(&dense, &xs, b, &mut ys).unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let mut y = vec![f32::NAN; rows];
                gemm::gemv_into(&dense, col, &mut y).unwrap();
                for (i, &want) in y.iter().enumerate() {
                    assert_eq!(ys[i * b + j], want, "dense {rows}x{cols} b={b} lane {j}");
                }
            }

            let mut ys = vec![f32::NAN; rows * b];
            csr.spmm_prec_into(Precision::F32, &xs, b, &mut ys).unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let mut y = vec![f32::NAN; rows];
                csr.spmv_prec_into(Precision::F32, col, &mut y).unwrap();
                for (i, &want) in y.iter().enumerate() {
                    assert_eq!(ys[i * b + j], want, "csr {rows}x{cols} b={b} lane {j}");
                }
            }

            let mut ys = vec![f32::NAN; rows * b];
            bspc.spmm_prec_into(Precision::F32, &xs, b, &mut ys)
                .unwrap();
            for (j, col) in cols_of.iter().enumerate() {
                let mut y = vec![f32::NAN; rows];
                bspc.spmv_prec_into(Precision::F32, col, &mut y).unwrap();
                for (i, &want) in y.iter().enumerate() {
                    assert_eq!(ys[i * b + j], want, "bspc {rows}x{cols} b={b} lane {j}");
                }
            }
        }
    }
}

#[test]
fn bspc_spmv_into_consistent_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0xB59C);
    for (rows, cols, seed) in [(32usize, 48usize, 4u64), (64, 64, 5), (96, 40, 6)] {
        let dense = bsp_weight(rows, cols, seed);
        let bspc = BspcMatrix::from_dense(&dense, 4, 4).unwrap();
        let x = rand_vec(cols, &mut rng);

        // The allocation-free entry point is bit-identical with the
        // Vec-returning one under the same ambient policy.
        let want = bspc.spmv(&x).unwrap();
        let mut y = vec![f32::NAN; rows];
        bspc.spmv_prec_into(Precision::F32, &x, &mut y).unwrap();
        assert_eq!(y, want, "{rows}x{cols}");

        // Against the dense reference the summation *order* differs (BSPC
        // iterates block-major), so the sound bound is the classical
        // recursive-summation one: 2·(nnz−1) ULPs at the accumulation
        // magnitude — not the 4-ULP kernel contract, which compares
        // like-ordered reductions only.
        for (r, &yr) in y.iter().enumerate() {
            let row = dense.row(r);
            let mag: f32 = row.iter().zip(&x).map(|(&w, &xc)| (w * xc).abs()).sum();
            let nnz = row.iter().filter(|&&w| w != 0.0).count();
            let dense_ref = dot_variant(Variant::ScalarU1, row, &x);
            let bound = 2.0 * nnz.max(1) as f32 * ulp_at(mag);
            assert!(
                (yr - dense_ref).abs() <= bound,
                "{rows}x{cols} row {r}: {yr} vs {dense_ref} (bound {bound})"
            );
        }
    }
}
