//! Batched SpMM benchmark: per-stream cost vs batch width.
//!
//! Writes `BENCH_batched_spmm.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). The sweep is the multi-stream inference question: with `b`
//! independent input columns sharing one weight pass, how far does the
//! per-stream cost of a sparse matvec fall below running `b` serial SpMVs?
//!
//! For each format (BSPC, CSR, dense) × thread count {1, 4} × batch width
//! b ∈ {1, 2, 4, 7, 8, 12, 16, 24, 25, 32} (partial register tiles beside
//! full ones, up to the widths a saturated 32-lane server steps at), the
//! 1024×1024 BSP-patterned matrix at 10× compression is applied to a
//! lane-major `[cols × b]` input through the parallel engine's SpMM path
//! (the generic `Executor::spmm_into` / `gemm_dense_into`); a `head` row
//! times the paper model's dense `39 × 1024` output layer the same way.
//! Beside the one-lane, one-thread `head` cell, `head_tiles` times the head
//! the production loop runs at one stream: `gemm::RowTiles`, its rows the
//! lanes of the register tile (the scalar tile under `RTM_SIMD=off`).
//! Reported per row:
//!
//! * `wall_us` — one batched pass over all `b` lanes;
//! * `per_stream_us` — `wall_us / b`, the effective per-utterance cost;
//! * `per_stream_speedup` — per-stream time at `b = 1` divided by
//!   `per_stream_us`: how much weight/index amortization buys. The weight
//!   values and index structure are walked once per row regardless of `b`,
//!   so this climbs toward the arithmetic-only limit as `b` grows.
//!
//! Batched results are bit-identical to per-lane serial SpMV (the engine's
//! lane contract), so these speedups come with no numerics caveat.
//!
//! Dependency-free: std + workspace crates only.

use rtm_bench::{bsp_matrix, emit_bench_report, json_row, quick_requested, time_us, JsonValue};
use rtm_exec::Executor;
use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::gemm::RowTiles;
use rtm_tensor::rng::StdRng;
use rtm_tensor::simd;

const STRIPES: usize = 8;
const BLOCKS: usize = 8;
const RATE: f64 = 10.0;
const BATCHES: [usize; 10] = [1, 2, 4, 7, 8, 12, 16, 24, 25, 32];
const HEAD_ROWS: usize = 39;
const THREADS: [usize; 2] = [1, 4];

struct Row {
    format: &'static str,
    threads: usize,
    b: usize,
    wall_us: f64,
}

fn main() {
    let quick = quick_requested();
    let (rows_dim, cols_dim) = if quick { (64, 64) } else { (1024, 1024) };
    // Keep total work per timing roughly flat across batch widths.
    let iters = |b: usize| if quick { 1 } else { (160 / b).max(10) };
    let dense_iters = |b: usize| if quick { 1 } else { (16 / b).max(2) };

    let dense = bsp_matrix(rows_dim, cols_dim, STRIPES, BLOCKS, RATE, 42);
    let bspc = BspcMatrix::from_dense(&dense, STRIPES, BLOCKS).expect("valid partition");
    let csr = CsrMatrix::from_dense(&dense);
    let head = rtm_tensor::Matrix::from_fn(HEAD_ROWS.min(rows_dim), cols_dim, |r, c| {
        0.05 + ((r * 31 + c * 17) % 97) as f32 / 100.0
    });

    let max_b = *BATCHES.last().expect("non-empty sweep");
    let mut rng = StdRng::seed_from_u64(7);
    let xs_all: Vec<f32> = (0..cols_dim * max_b)
        .map(|_| rng.gen_f32() * 2.0 - 1.0)
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &THREADS {
        let exec = Executor::new(threads);
        for &b in &BATCHES {
            let xs = &xs_all[..cols_dim * b];
            let mut ys = vec![0.0f32; rows_dim * b];

            let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
            for k in formats {
                let wall = time_us(iters(b), || {
                    exec.spmm_into(k, Precision::F32, xs, b, &mut ys)
                        .expect("shapes match");
                });
                rows.push(Row {
                    format: k.tag(),
                    threads,
                    b,
                    wall_us: wall,
                });
            }

            let wall = time_us(dense_iters(b), || {
                exec.gemm_dense_into(&dense, xs, b, &mut ys)
                    .expect("shapes match");
            });
            rows.push(Row {
                format: "dense",
                threads,
                b,
                wall_us: wall,
            });

            let mut logits = vec![0.0f32; head.rows() * b];
            let wall = time_us(iters(b), || {
                exec.gemm_dense_into(&head, xs, b, &mut logits)
                    .expect("shapes match");
            });
            rows.push(Row {
                format: "head",
                threads,
                b,
                wall_us: wall,
            });

            eprintln!("[threads {threads}] b {b:>2} done");
        }
    }

    // After the sweep, so that its buffers sit where they always did.
    let v = simd::active_variant();
    let tiles = RowTiles::new(&head);
    let (x, mut logits) = (&xs_all[..cols_dim], vec![0.0; head.rows()]);
    let wall = time_us(iters(1), || {
        tiles.gemv_into(v, x, &mut logits).expect("shapes match");
    });
    rows.push(Row {
        format: "head_tiles",
        threads: 1,
        b: 1,
        wall_us: wall,
    });

    let base_per_stream = |format: &str, threads: usize| -> f64 {
        rows.iter()
            .find(|r| r.format == format && r.threads == threads && r.b == 1)
            .map(|r| r.wall_us)
            .expect("b=1 row present")
    };

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            let per_stream = r.wall_us / r.b as f64;
            let base = base_per_stream(r.format, r.threads);
            json_row(&[
                ("format", JsonValue::Str(r.format.into())),
                ("threads", JsonValue::Int(r.threads as i64)),
                ("b", JsonValue::Int(r.b as i64)),
                ("wall_us", JsonValue::F64(r.wall_us, 2)),
                ("per_stream_us", JsonValue::F64(per_stream, 2)),
                ("per_stream_speedup", JsonValue::F64(base / per_stream, 3)),
            ])
        })
        .collect();

    emit_bench_report(
        "batched_spmm",
        quick,
        &[
            (
                "matrix",
                JsonValue::Raw(format!(
                    "{{\"rows\": {rows_dim}, \"cols\": {cols_dim}, \"stripes\": {STRIPES}, \
                     \"blocks\": {BLOCKS}, \"compression\": {RATE}}}"
                )),
            ),
            (
                "host_cpus",
                JsonValue::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64),
            ),
            (
                "vector_isa",
                JsonValue::Str(rtm_tensor::simd::vector_isa().into()),
            ),
            (
                "notes",
                JsonValue::Str(
                    "Lane-major batched SpMM through the parallel engine; per_stream_us = \
                     wall_us / b, per_stream_speedup = per-stream time at b=1 / per-stream \
                     time at b. Weight values and index structure are read once per row \
                     regardless of b, so per-stream cost falls as the batch widens. Lane j \
                     of every result is bit-identical to the serial SpMV of input column j."
                        .into(),
                ),
            ),
        ],
        &[("results", rendered)],
    );
}
