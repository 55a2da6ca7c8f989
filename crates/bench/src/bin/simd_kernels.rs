//! SIMD kernel benchmark: scalar-vs-vector speedups per format × compression.
//!
//! Writes `BENCH_simd_kernels.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). Every kernel in the `rtm_tensor::simd` dispatch layer is timed
//! single-threaded under each [`Variant`] by pinning the process-global
//! policy (`SimdPolicy::Fixed(variant)`) and then calling the *normal
//! dispatched entry points* — exactly what inference runs. The JSON records
//! both the requested variant and the variant that actually ran
//! (`active_variant`), because on a host without the vector ISA a `vector`
//! request honestly resolves to `scalar-u1`, the scalar definition.
//!
//! Sweep: dense gemv, BSPC `spmv_into` and CSR `spmv_into` on the
//! 1024×1024 BSP-patterned matrix at 2.5× and 10× compression, plus the
//! n=1024 micro-kernels (dot, axpy) and the activation sweeps over one
//! 1024-wide gate plane and over the `[1024 × 12]` plane of a 12-lane step.
//! A sweep is in place and `sigmoid` has a fixed point (0.659), so each
//! iteration refills the plane from seeded N(0, 2²) pre-activations (the
//! copy is inside the timed region: ≈ 0.1 ns per element); timing the sweep
//! over its own output would time one argument, not a gate plane. The
//! headline `speedups` section divides the scalar-u1 reference time by the
//! vector time per kernel × compression.
//!
//! Dependency-free: std + workspace crates only.

use rtm_bench::{bsp_matrix, emit_bench_report, json_row, quick_requested, time_us, JsonValue};
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::gemm;
use rtm_tensor::init::standard_normal;
use rtm_tensor::rng::StdRng;
use rtm_tensor::simd::{self, SimdPolicy, Variant};
use std::hint::black_box;

const STRIPES: usize = 8;
const BLOCKS: usize = 8;

struct Row {
    kernel: &'static str,
    compression: f64,
    requested: &'static str,
    ran: &'static str,
    us: f64,
}

fn main() {
    let quick = quick_requested();
    let (rows_dim, cols_dim) = if quick { (64, 64) } else { (1024, 1024) };
    let compressions: &[f64] = if quick { &[2.5] } else { &[2.5, 10.0] };
    let scale = |iters: usize| if quick { 1 } else { iters };

    let mut rows: Vec<Row> = Vec::new();

    // Micro-kernel operands (mixed-sign, the differential suite's regime).
    let mut rng = StdRng::seed_from_u64(3);
    let a: Vec<f32> = (0..cols_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let b: Vec<f32> = (0..cols_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();

    for &rate in compressions {
        let dense = bsp_matrix(rows_dim, cols_dim, STRIPES, BLOCKS, rate, 42);
        let bspc = BspcMatrix::from_dense(&dense, STRIPES, BLOCKS).expect("valid partition");
        let csr = CsrMatrix::from_dense(&dense);
        let mut rng = StdRng::seed_from_u64(7);
        let x: Vec<f32> = (0..cols_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let mut y = vec![0.0f32; rows_dim];

        for &variant in &Variant::ALL {
            simd::set_policy(SimdPolicy::Fixed(variant));
            let requested = variant.name();
            let ran = simd::active_variant().name();

            let us = time_us(scale(20), || {
                gemm::gemv_into(&dense, &x, &mut y).expect("shapes match");
            });
            rows.push(Row {
                kernel: "dense_gemv",
                compression: rate,
                requested,
                ran,
                us,
            });

            let us = time_us(scale(200), || {
                bspc.spmv_prec_into(Precision::F32, &x, &mut y)
                    .expect("shapes match");
            });
            rows.push(Row {
                kernel: "bspc_spmv",
                compression: rate,
                requested,
                ran,
                us,
            });

            let us = time_us(scale(200), || {
                csr.spmv_prec_into(Precision::F32, &x, &mut y)
                    .expect("shapes match");
            });
            rows.push(Row {
                kernel: "csr_spmv",
                compression: rate,
                requested,
                ran,
                us,
            });
        }
        eprintln!("[{rate:>4}x] matrix kernels done");
    }

    // Size-independent micro-kernels (n = 1024; the sweeps also over
    // 1024 × 12), reported at compression 1.
    let mut acc = vec![0.0f32; cols_dim];
    // Gate pre-activations: one plane and the 12-lane step's plane.
    let mut rng = StdRng::seed_from_u64(11);
    let pre: Vec<f32> = (0..cols_dim * 12)
        .map(|_| 2.0 * standard_normal(&mut rng))
        .collect();
    let mut gates = vec![0.0f32; pre.len()];
    type Sweep = fn(&mut [f32]);
    let sweeps: [(&'static str, Sweep, usize); 4] = [
        ("sigmoid_sweep", simd::sigmoid_sweep, cols_dim),
        ("tanh_sweep", simd::tanh_sweep, cols_dim),
        ("sigmoid_sweep_b12", simd::sigmoid_sweep, cols_dim * 12),
        ("tanh_sweep_b12", simd::tanh_sweep, cols_dim * 12),
    ];
    for &variant in &Variant::ALL {
        simd::set_policy(SimdPolicy::Fixed(variant));
        let requested = variant.name();
        let ran = simd::active_variant().name();

        let us = time_us(scale(2000), || {
            black_box(simd::dot(&a, &b));
        });
        rows.push(Row {
            kernel: "dot",
            compression: 1.0,
            requested,
            ran,
            us,
        });

        let us = time_us(scale(2000), || {
            simd::axpy(1e-3, &a, &mut acc);
        });
        rows.push(Row {
            kernel: "axpy",
            compression: 1.0,
            requested,
            ran,
            us,
        });

        for (kernel, sweep, n) in sweeps {
            let us = time_us(scale(500), || {
                gates[..n].copy_from_slice(&pre[..n]);
                sweep(&mut gates[..n]);
            });
            rows.push(Row {
                kernel,
                compression: 1.0,
                requested,
                ran,
                us,
            });
        }
    }
    simd::set_policy(SimdPolicy::Auto);
    eprintln!("micro kernels done");

    let us_of = |kernel: &str, rate: f64, requested: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.kernel == kernel && r.compression == rate && r.requested == requested)
            .map(|r| r.us)
    };

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json_row(&[
                ("kernel", JsonValue::Str(r.kernel.into())),
                ("compression", JsonValue::Raw(r.compression.to_string())),
                ("variant_requested", JsonValue::Str(r.requested.into())),
                ("variant_ran", JsonValue::Str(r.ran.into())),
                ("us", JsonValue::F64(r.us, 3)),
            ])
        })
        .collect();

    let mut speedups: Vec<String> = Vec::new();
    let matrix_kernels = ["dense_gemv", "bspc_spmv", "csr_spmv"];
    let micro_kernels = ["dot", "axpy"].into_iter().chain(sweeps.map(|s| s.0));
    for kernel in matrix_kernels.into_iter().chain(micro_kernels) {
        let rates: &[f64] = if matrix_kernels.contains(&kernel) {
            compressions
        } else {
            &[1.0]
        };
        for &rate in rates {
            let (Some(u1), Some(vec_us)) = (
                us_of(kernel, rate, "scalar-u1"),
                us_of(kernel, rate, "vector"),
            ) else {
                continue;
            };
            speedups.push(json_row(&[
                ("kernel", JsonValue::Str(kernel.into())),
                ("compression", JsonValue::Raw(rate.to_string())),
                ("vector_over_scalar_u1", JsonValue::F64(u1 / vec_us, 3)),
            ]));
        }
    }

    emit_bench_report(
        "simd_kernels",
        quick,
        &[
            (
                "matrix",
                JsonValue::Raw(format!(
                    "{{\"rows\": {rows_dim}, \"cols\": {cols_dim}, \
                     \"stripes\": {STRIPES}, \"blocks\": {BLOCKS}}}"
                )),
            ),
            ("vector_isa", JsonValue::Str(simd::vector_isa().into())),
            ("lane_width", JsonValue::Int(simd::lane_width() as i64)),
            (
                "notes",
                JsonValue::Str(
                    "Single-thread. Each variant is timed through the normal dispatched \
                     entry points with the global policy pinned; variant_ran records what \
                     actually executed (a vector request resolves to scalar-u1 without \
                     the ISA). The sweeps are bit-identical in both variants: scalar-u1 \
                     is one loop over the scalar sigmoid / tanh, the vector one runs the \
                     same operation sequence eight lanes at a time. Each sweep \
                     iteration refills its plane (1024, or 1024 x 12 for _b12) from seeded \
                     N(0, 2^2) pre-activations; the copy is timed with it. speedup = \
                     scalar-u1 time / vector time."
                        .into(),
                ),
            ),
        ],
        &[("results", rendered), ("speedups", speedups)],
    );
}
