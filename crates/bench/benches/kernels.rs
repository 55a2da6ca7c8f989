//! Criterion microbenchmarks of the SpMV/GEMV kernels (harness C1).
//!
//! These measure *real host time* for the kernels the analytical simulator
//! prices, cross-checking its ordering claims: on a BSP-pruned matrix the
//! sparse formats beat dense, and BSPC's shared index stream beats CSR's
//! per-nonzero indices.
//!
//! ```text
//! cargo bench -p rtm-bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtm_sparse::{BspcMatrix, CscMatrix, CsrMatrix, SparseKernel};
use rtm_tensor::gemm;
use rtm_tensor::Matrix;
use std::hint::black_box;

/// A 512x512 matrix with exact BSP structure at the given column rate
/// (8 stripes x 8 blocks).
fn bsp_matrix(col_rate: usize) -> Matrix {
    Matrix::from_fn(512, 512, |r, c| {
        let stripe = r / 64;
        let block = c / 64;
        let local = c % 64;
        if local % col_rate == (stripe + block) % col_rate {
            0.5 + (r % 7) as f32 * 0.01
        } else {
            0.0
        }
    })
}

fn bench_spmv_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv_512x512");
    for rate in [4usize, 16] {
        let dense = bsp_matrix(rate);
        let csr = CsrMatrix::from_dense(&dense);
        let csc = CscMatrix::from_dense(&dense);
        let bspc = BspcMatrix::from_dense(&dense, 8, 8).expect("partition fits");
        let x: Vec<f32> = (0..512).map(|i| (i as f32 * 0.37).sin()).collect();

        group.bench_with_input(BenchmarkId::new("dense_gemv", rate), &rate, |b, _| {
            b.iter(|| gemm::gemv(black_box(&dense), black_box(&x)).expect("dims"))
        });
        group.bench_with_input(BenchmarkId::new("csr", rate), &rate, |b, _| {
            b.iter(|| csr.spmv(black_box(&x)).expect("dims"))
        });
        group.bench_with_input(BenchmarkId::new("csc", rate), &rate, |b, _| {
            b.iter(|| csc.spmv(black_box(&x)).expect("dims"))
        });
        group.bench_with_input(BenchmarkId::new("bspc", rate), &rate, |b, _| {
            b.iter(|| bspc.spmv(black_box(&x)).expect("dims"))
        });
    }
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_128");
    let a = Matrix::from_fn(128, 128, |r, c| ((r * 128 + c) as f32 * 0.01).sin());
    let b = Matrix::from_fn(128, 128, |r, c| ((r + c) as f32 * 0.02).cos());
    group.bench_function("naive", |bench| {
        bench.iter(|| gemm::matmul(black_box(&a), black_box(&b)).expect("dims"))
    });
    group.bench_function("blocked64", |bench| {
        bench.iter(|| gemm::matmul_blocked(black_box(&a), black_box(&b), 64).expect("dims"))
    });
    group.finish();
}

fn bench_f16_conversion(c: &mut Criterion) {
    let xs: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin()).collect();
    c.bench_function("f16_quantize_4096", |b| {
        b.iter(|| {
            let mut v = xs.clone();
            rtm_tensor::f16::quantize_f16_slice(black_box(&mut v));
            v
        })
    });
}

criterion_group!(
    benches,
    bench_spmv_formats,
    bench_gemm,
    bench_f16_conversion
);
criterion_main!(benches);
