//! Parallel SpMV benchmark: threads × sparsity × format sweep.
//!
//! Writes `BENCH_parallel_spmv.json` at the repository root (or under
//! `target/quick/` with `--quick`, which runs a tiny smoke configuration
//! for CI). Two speedup figures are reported per configuration:
//!
//! * `speedup_wall` — serial wall time / parallel wall time. Only
//!   meaningful when the host actually has multiple cores; CI containers
//!   for this repo are often pinned to a single core, where parallel wall
//!   time can't beat serial.
//! * `speedup_critical_path` — serial wall time / (slowest chunk's busy
//!   time). Each chunk kernel is timed in isolation on the real data, so
//!   this measures what the engine's load balancing achieves when every
//!   chunk runs on its own core — the engine-quality metric the reorder
//!   machinery targets (§IV-B-a). `speedup` aliases this field.
//!
//! Dependency-free: std + workspace crates only.

use rtm_bench::{bsp_matrix, emit_bench_report, json_row, quick_requested, time_us, JsonValue};
use rtm_exec::{dense_rows_batch_into, Executor, Partition};
use rtm_sparse::{Activations, BspcMatrix, CsrMatrix, Precision, SparseKernel};
use rtm_tensor::rng::StdRng;

const STRIPES: usize = 8;
const BLOCKS: usize = 8;
const THREADS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    format: &'static str,
    compression: f64,
    threads: usize,
    chunks: usize,
    imbalance: f64,
    serial_us: f64,
    wall_us: f64,
    critical_path_us: f64,
}

impl Row {
    fn speedup_wall(&self) -> f64 {
        self.serial_us / self.wall_us
    }
    fn speedup_critical(&self) -> f64 {
        self.serial_us / self.critical_path_us
    }
}

/// Times each chunk's kernel in isolation and returns the slowest (the
/// parallel critical path, free of single-core scheduling interference).
fn critical_path_us(partition: &Partition, iters: usize, mut run_chunk: impl FnMut(usize)) -> f64 {
    let mut worst = 0.0f64;
    for (i, _) in partition.chunks().iter().enumerate() {
        let us = time_us(iters, || run_chunk(i));
        worst = worst.max(us);
    }
    worst
}

fn main() {
    let quick = quick_requested();
    let (rows_dim, cols_dim) = if quick { (64, 64) } else { (1024, 1024) };
    let compressions: &[f64] = if quick { &[2.5] } else { &[2.5, 10.0] };
    let (sparse_iters, dense_iters) = if quick { (1, 1) } else { (100, 10) };

    let mut rows: Vec<Row> = Vec::new();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    for &rate in compressions {
        let dense = bsp_matrix(rows_dim, cols_dim, STRIPES, BLOCKS, rate, 42);
        let bspc = BspcMatrix::from_dense(&dense, STRIPES, BLOCKS).expect("valid partition");
        let csr = CsrMatrix::from_dense(&dense);
        let mut rng = StdRng::seed_from_u64(7);
        let x: Vec<f32> = (0..cols_dim).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
        let mut y = vec![0.0f32; rows_dim];

        let formats: [&dyn SparseKernel; 2] = [&bspc, &csr];
        let [bspc_serial, csr_serial] = formats.map(|k| {
            time_us(sparse_iters, || {
                k.spmv_prec_into(Precision::F32, &x, &mut y)
                    .expect("shapes match");
            })
        });
        let dense_serial = time_us(dense_iters, || {
            dense_rows_batch_into(&dense, &x, 1, 0..rows_dim, &mut y, 0);
        });
        eprintln!(
            "[{rate:>4}x] serial us: bspc {bspc_serial:.1} csr {csr_serial:.1} dense {dense_serial:.1}"
        );

        for &threads in &THREADS {
            let exec = Executor::new(threads);

            // BSPC and CSR through the one generic entry; a chunk's busy
            // work is the format's own row-range kernel on its unit range.
            for (k, serial_us) in [(formats[0], bspc_serial), (formats[1], csr_serial)] {
                let wall = time_us(sparse_iters, || {
                    exec.spmv_into(k, Precision::F32, &x, &mut y)
                        .expect("shapes match");
                });
                let part = exec.partition(k);
                let cp = critical_path_us(&part, sparse_iters, |i| {
                    let c = &part.chunks()[i];
                    let base = k.unit_first_row(c.start);
                    k.rows_into(
                        Activations::F32(&x),
                        1,
                        c.start..c.end,
                        &mut y[base..],
                        base,
                    );
                });
                rows.push(Row {
                    format: k.tag(),
                    compression: rate,
                    threads,
                    chunks: part.len(),
                    imbalance: part.imbalance(),
                    serial_us,
                    wall_us: wall,
                    critical_path_us: cp,
                });
            }

            // Dense (compression applies only to the sparse formats; the
            // dense kernel is the same matrix with explicit zeros).
            let wall = time_us(dense_iters, || {
                exec.gemv_dense_into(&dense, &x, &mut y)
                    .expect("shapes match");
            });
            let costs = vec![cols_dim; rows_dim];
            let part = Partition::balanced(&costs, threads);
            let cp = critical_path_us(&part, dense_iters, |i| {
                let c = &part.chunks()[i];
                dense_rows_batch_into(&dense, &x, 1, c.start..c.end, &mut y[c.start..], c.start);
            });
            rows.push(Row {
                format: "dense",
                compression: rate,
                threads,
                chunks: part.len(),
                imbalance: part.imbalance(),
                serial_us: dense_serial,
                wall_us: wall,
                critical_path_us: cp,
            });

            eprintln!("[{rate:>4}x] threads {threads} done");
        }
    }

    let rendered: Vec<String> = rows
        .iter()
        .map(|r| {
            json_row(&[
                ("format", JsonValue::Str(r.format.into())),
                ("compression", JsonValue::Raw(r.compression.to_string())),
                ("threads", JsonValue::Int(r.threads as i64)),
                ("chunks", JsonValue::Int(r.chunks as i64)),
                ("imbalance", JsonValue::F64(r.imbalance, 4)),
                ("serial_us", JsonValue::F64(r.serial_us, 2)),
                ("wall_us", JsonValue::F64(r.wall_us, 2)),
                ("critical_path_us", JsonValue::F64(r.critical_path_us, 2)),
                ("speedup_wall", JsonValue::F64(r.speedup_wall(), 3)),
                (
                    "speedup_critical_path",
                    JsonValue::F64(r.speedup_critical(), 3),
                ),
                ("speedup", JsonValue::F64(r.speedup_critical(), 3)),
            ])
        })
        .collect();

    emit_bench_report(
        "parallel_spmv",
        quick,
        &[
            (
                "matrix",
                JsonValue::Raw(format!(
                    "{{\"rows\": {rows_dim}, \"cols\": {cols_dim}, \
                     \"stripes\": {STRIPES}, \"blocks\": {BLOCKS}}}"
                )),
            ),
            ("host_cpus", JsonValue::Int(host_cpus as i64)),
            (
                "speedup_definition",
                JsonValue::Str(
                    "speedup = speedup_critical_path = serial_us / max per-chunk busy time, \
                     measured per chunk in isolation; speedup_wall is raw wall-clock and is \
                     core-count-bound on this host"
                        .into(),
                ),
            ),
        ],
        &[("results", rendered)],
    );
}
