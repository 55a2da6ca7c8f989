//! Quantized kernel benchmark: f32 vs f16 vs int8 sparse kernels.
//!
//! Writes `BENCH_quant_kernels.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). Times the precision-dispatched serial entry points
//! ([`BspcMatrix::spmv_prec_into`], [`BspcMatrix::spmm_prec_into`], and the
//! CSR SpMV at f32, the one precision the baseline holds) — exactly what the
//! compiled runtime calls — on the
//! 1024×1024 BSP-patterned matrix at 2.5× and 10× compression, under the
//! `Auto` SIMD policy. The `bytes` field records each format's total
//! footprint (index structure + values + scale metadata, via
//! [`rtm_sparse::Footprint`]) — what a cold call streams from memory. The
//! timed loop is warm, and at these shapes the whole matrix sits in cache,
//! so a time here is set by the instructions a kernel spends per stored
//! value, not by the bytes it reads: f16 runs f32's loop plus the widening
//! of each stored half (in the register it is loaded into where a BSPC tile
//! is the lane plane, through the conversion scratch elsewhere), and int8
//! runs its own integer kernels plus a per-call activation quantization.
//! Read a ratio as "what the narrower storage costs or saves in compute";
//! the byte reduction itself is the `bytes` column.
//!
//! The headline `speedups` section divides the f32 time by the f16/int8
//! time per BSPC kernel × compression (below 1: the narrower kernel is
//! slower).
//!
//! Dependency-free: std + workspace crates only.

use rtm_bench::{bsp_matrix, emit_bench_report, json_row, quick_requested, time_us, JsonValue};
use rtm_sparse::{BspcMatrix, CsrMatrix, Footprint, Precision, SparseKernel};
use rtm_tensor::rng::StdRng;

const STRIPES: usize = 8;
const BLOCKS: usize = 8;
const LANES: usize = 8;

struct Row {
    kernel: &'static str,
    compression: f64,
    precision: &'static str,
    bytes: usize,
    us: f64,
}

fn main() {
    let quick = quick_requested();
    let (rows_dim, cols_dim) = if quick { (64, 64) } else { (1024, 1024) };
    let compressions: &[f64] = if quick { &[2.5] } else { &[2.5, 10.0] };
    let scale = |iters: usize| if quick { 1 } else { iters };

    let mut rows: Vec<Row> = Vec::new();

    for &rate in compressions {
        let dense = bsp_matrix(rows_dim, cols_dim, STRIPES, BLOCKS, rate, 42);
        let bspc = BspcMatrix::from_dense(&dense, STRIPES, BLOCKS).expect("valid partition");
        let csr = CsrMatrix::from_dense(&dense);
        let mut rng = StdRng::seed_from_u64(7);
        let x: Vec<f32> = (0..cols_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let xs: Vec<f32> = (0..cols_dim * LANES)
            .map(|_| rng.gen_f32() * 2.0 - 1.0)
            .collect();
        let mut y = vec![0.0f32; rows_dim];
        let mut ys = vec![0.0f32; rows_dim * LANES];

        for prec in [Precision::F32, Precision::F16, Precision::Int8] {
            let tag = prec.tag();
            let bspc_bytes = Footprint::bspc(&bspc, prec).total();

            let us = time_us(scale(200), || {
                bspc.spmv_prec_into(prec, &x, &mut y).expect("shapes match");
            });
            rows.push(Row {
                kernel: "bspc_spmv",
                compression: rate,
                precision: tag,
                bytes: bspc_bytes,
                us,
            });

            let us = time_us(scale(40), || {
                bspc.spmm_prec_into(prec, &xs, LANES, &mut ys)
                    .expect("shapes match");
            });
            rows.push(Row {
                kernel: "bspc_spmm",
                compression: rate,
                precision: tag,
                bytes: bspc_bytes,
                us,
            });

            if csr.holds(prec) {
                let us = time_us(scale(200), || {
                    csr.spmv_prec_into(prec, &x, &mut y).expect("shapes match");
                });
                rows.push(Row {
                    kernel: "csr_spmv",
                    compression: rate,
                    precision: tag,
                    bytes: Footprint::csr(&csr, prec).total(),
                    us,
                });
            }
        }
        eprintln!("[{rate:>4}x] precision kernels done");
    }

    let us_of = |kernel: &str, rate: f64, precision: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r.kernel == kernel && r.compression == rate && r.precision == precision)
            .map(|r| r.us)
    };

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json_row(&[
                ("kernel", JsonValue::Str(r.kernel.into())),
                ("compression", JsonValue::Raw(r.compression.to_string())),
                ("precision", JsonValue::Str(r.precision.into())),
                ("bytes", JsonValue::Int(r.bytes as i64)),
                ("us", JsonValue::F64(r.us, 3)),
            ])
        })
        .collect();

    let mut speedups: Vec<String> = Vec::new();
    for kernel in ["bspc_spmv", "bspc_spmm"] {
        for &rate in compressions {
            let (Some(f32_us), Some(f16_us), Some(i8_us)) = (
                us_of(kernel, rate, "f32"),
                us_of(kernel, rate, "f16"),
                us_of(kernel, rate, "int8"),
            ) else {
                continue;
            };
            speedups.push(json_row(&[
                ("kernel", JsonValue::Str(kernel.into())),
                ("compression", JsonValue::Raw(rate.to_string())),
                ("f16_over_f32", JsonValue::F64(f32_us / f16_us, 3)),
                ("int8_over_f32", JsonValue::F64(f32_us / i8_us, 3)),
            ]));
        }
    }

    emit_bench_report(
        "quant_kernels",
        quick,
        &[
            (
                "matrix",
                JsonValue::Raw(format!(
                    "{{\"rows\": {rows_dim}, \"cols\": {cols_dim}, \
                     \"stripes\": {STRIPES}, \"blocks\": {BLOCKS}, \"lanes\": {LANES}}}"
                )),
            ),
            (
                "vector_isa",
                JsonValue::Str(rtm_tensor::simd::vector_isa().into()),
            ),
            (
                "notes",
                JsonValue::Str(
                    "Single-thread, Auto SIMD policy, precision-dispatched serial entry \
                     points (what the compiled runtime calls). int8 quantizes the \
                     activation vector per call and accumulates in i32; f16 streams the \
                     2-byte stored weights, widens them exactly and accumulates in f32. \
                     bytes = full format footprint including index structure and scale \
                     metadata (the cold-call traffic); the timed loop is warm and \
                     cache-resident, so a time is the kernel's instruction cost, not its \
                     byte count. speedup = f32 time / precision time (< 1: slower)."
                        .into(),
                ),
            ),
        ],
        &[("results", rendered), ("speedups", speedups)],
    );
}
