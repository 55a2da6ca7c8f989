#![warn(missing_docs)]

//! # rtm-exec
//!
//! The multi-threaded SpMV execution engine.
//!
//! The paper's claim (§IV-B, Fig. 4) is that BSP sparsity only pays off
//! because matrix reorder hands parallel threads balanced row groups; BSPC's
//! stripe-grouped row tiles are those groups. This crate makes that
//! concrete on CPU:
//!
//! * [`pool`] — a persistent worker pool over `std::thread` + channels
//!   (no registry dependencies), caller-participating, with contained task
//!   panics (a typed [`ExecError::WorkerPanicked`] instead of a re-panic,
//!   dead workers respawned) and a serial fast path at `threads = 1`;
//! * [`partition`] — cost-balanced contiguous chunking of a format's
//!   partition units (balancing nonzeros, not rows), with the *measured*
//!   imbalance factor the device model consumes;
//! * [`spmv`] — the [`Executor`] handle: one lock-free pooled driver for
//!   every format implementing [`rtm_sparse::SparseKernel`]
//!   ([`Executor::spmv_into`], [`Executor::spmm_into`]) — per-thread
//!   disjoint `&mut` output slices, each chunk running the format's own
//!   row-range kernel;
//! * [`dense`] — the unpruned GEMV/GEMM baseline on the same chunk loop.
//!
//! A chunk runs the very function the serial entry runs over the whole
//! range, so results are bit-identical for all thread counts — the
//! equivalence tests in this crate and `tests/parallel_exec.rs` pin that.
//!
//! # Example
//!
//! ```
//! use rtm_exec::Executor;
//! use rtm_sparse::{BspcMatrix, Precision, SparseKernel};
//! use rtm_tensor::Matrix;
//!
//! let w = Matrix::from_fn(8, 8, |r, c| if c % 2 == r / 4 { 1.0 } else { 0.0 });
//! let m = BspcMatrix::from_dense(&w, 2, 2).unwrap();
//! let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
//!
//! let exec = Executor::new(4);
//! let mut parallel = vec![0.0; 8];
//! exec.spmv_into(&m, Precision::F32, &x, &mut parallel).unwrap();
//! assert_eq!(parallel, m.spmv(&x).unwrap());
//! ```

pub mod dense;
pub mod error;
pub mod partition;
pub mod pool;
pub mod spmv;

pub use dense::dense_rows_batch_into;
pub use error::ExecError;
pub use partition::{Chunk, Partition};
pub use pool::{Task, WorkerPool};
pub use spmv::Executor;

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_sparse::{BspcMatrix, CsrMatrix, Precision, SparseKernel};
    use rtm_tensor::rng::StdRng;
    use rtm_tensor::Matrix;

    /// Thread counts the equivalence suite sweeps (per the issue: 1, 2, 3
    /// and more-threads-than-cores 8).
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// A randomized BSP-pruned matrix: per stripe, a random subset of
    /// columns survives per block; a random subset of rows survives.
    fn bsp_random(
        rows: usize,
        cols: usize,
        stripes: usize,
        blocks: usize,
        keep_cols: f64,
        keep_rows: f64,
        seed: u64,
    ) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let stripe_h = rows.div_ceil(stripes);
        let block_w = cols.div_ceil(blocks);
        let mut col_kept = vec![false; stripes * cols];
        for s in 0..stripes {
            for c in 0..cols {
                let _ = block_w; // block granularity folded into the draw
                if f64::from(rng.gen_f32()) < keep_cols {
                    col_kept[s * cols + c] = true;
                }
            }
        }
        let row_kept: Vec<bool> = (0..rows)
            .map(|_| f64::from(rng.gen_f32()) < keep_rows)
            .collect();
        Matrix::from_fn(rows, cols, |r, c| {
            let s = (r / stripe_h).min(stripes - 1);
            if row_kept[r] && col_kept[s * cols + c] {
                0.1 + ((r * 13 + c * 7) % 89) as f32 / 10.0
            } else {
                0.0
            }
        })
    }

    fn input(cols: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..cols).map(|_| rng.gen_f32() * 2.0 - 1.0).collect()
    }

    /// Lane counts the batched sweep covers: 1, the partial vector widths
    /// around the 8-lane register, one full register and a partial batch
    /// above it.
    const LANES: [usize; 7] = [1, 2, 3, 4, 7, 8, 12];

    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    fn pools() -> Vec<Executor> {
        THREADS.iter().map(|&t| Executor::new(t)).collect()
    }

    fn pooled_spmv<K: SparseKernel>(exec: &Executor, k: &K, x: &[f32]) -> Vec<f32> {
        // A dirty buffer: every output row must be written or zero-filled.
        let mut y = vec![f32::NAN; k.rows()];
        exec.spmv_into(k, Precision::F32, x, &mut y).unwrap();
        y
    }

    /// Checks serial SpMV against an oracle that shares no code with the
    /// kernels: the scalar-u1 dot of each row of `dense` (what
    /// `gemm::gemv` computes under `RTM_SIMD=off`). Every format
    /// accumulates a row's terms as one chain in ascending column order —
    /// the oracle's order, zeros aside — so the simd contract applies:
    /// exact under the scalar variants, within 4 ULPs at the accumulation
    /// magnitude under the vector one.
    fn assert_matches_dense(y: &[f32], dense: &Matrix, x: &[f32], what: &str) {
        use rtm_tensor::simd::{self, Variant};
        for (r, &got) in y.iter().enumerate() {
            let row = dense.row(r);
            let want = simd::dot_variant(Variant::ScalarU1, row, x);
            let mag: f32 = row.iter().zip(x).map(|(&w, &xc)| (w * xc).abs()).sum();
            let ulps = match simd::active_variant() {
                Variant::Vector => 4.0,
                _ => 0.0,
            };
            assert!(
                (got - want).abs() <= ulps * simd::ulp_at(mag),
                "{what} row {r}: {got} vs dense {want} ({ulps} ulps at {mag})"
            );
        }
    }

    /// The one equivalence check every format runs, swept over precision ×
    /// lanes × thread counts: serial f32/f16 SpMV against the independent
    /// dense oracle; pooled SpMV bit-identical to serial; every lane of
    /// the serial SpMM bit-identical to the serial SpMV of its column; and
    /// pooled SpMM bit-identical to serial SpMM.
    fn check<K: SparseKernel>(k: &K, dense: &Matrix, seed: u64) {
        let (rows, cols) = (k.rows(), k.cols());
        let execs = pools();
        let x = input(cols, seed + 100);
        for prec in PRECISIONS {
            let what = format!("{} {prec:?} seed {seed}", k.tag());
            let mut serial = vec![f32::NAN; rows];
            k.spmv_prec_into(prec, &x, &mut serial).unwrap();
            match prec {
                Precision::F32 => assert_matches_dense(&serial, dense, &x, &what),
                // Decoding f16 is exact: the f16 kernel is the f32 kernel
                // on f16-rounded weights.
                Precision::F16 => {
                    let rounded = dense.map(rtm_tensor::f16::quantize_f16);
                    assert_matches_dense(&serial, &rounded, &x, &what);
                }
                // Int8 error bounds are format-specific (scale
                // granularity) and pinned by the rtm-sparse unit tests.
                Precision::Int8 => {}
            }
            for exec in &execs {
                let mut y = vec![f32::NAN; rows];
                exec.spmv_into(k, prec, &x, &mut y).unwrap();
                assert_eq!(y, serial, "{what} t={}", exec.threads());
            }
            for b in LANES {
                let xs = input(cols * b, seed + 200 + b as u64);
                let mut serial_mm = vec![f32::NAN; rows * b];
                k.spmm_prec_into(prec, &xs, b, &mut serial_mm).unwrap();
                for j in 0..b {
                    let col: Vec<f32> = (0..cols).map(|c| xs[c * b + j]).collect();
                    let mut want = vec![f32::NAN; rows];
                    k.spmv_prec_into(prec, &col, &mut want).unwrap();
                    for r in 0..rows {
                        assert_eq!(
                            serial_mm[r * b + j],
                            want[r],
                            "{what} b={b} lane {j} row {r}"
                        );
                    }
                }
                for exec in &execs {
                    let mut ys = vec![f32::NAN; rows * b];
                    exec.spmm_into(k, prec, &xs, b, &mut ys).unwrap();
                    assert_eq!(ys, serial_mm, "{what} b={b} t={}", exec.threads());
                }
            }
        }
    }

    #[test]
    fn bspc_parallel_matches_serial_bit_exact() {
        for seed in 0..5u64 {
            let w = bsp_random(64, 48, 4, 4, 0.3, 0.8, seed);
            check(&BspcMatrix::from_dense(&w, 4, 4).unwrap(), &w, seed);
        }
    }

    #[test]
    fn csr_parallel_matches_serial_bit_exact() {
        for seed in 0..5u64 {
            let w = bsp_random(57, 33, 3, 3, 0.4, 0.7, seed);
            check(&CsrMatrix::from_dense(&w), &w, seed);
        }
    }

    #[test]
    fn dense_parallel_matches_serial_bit_exact() {
        for seed in 0..3u64 {
            let w = bsp_random(41, 29, 1, 1, 1.0, 1.0, seed);
            let x = input(29, seed);
            // Serial reference through the same dispatched simd kernel the
            // parallel row workers run — results must be bit-identical for
            // every thread count and every SimdPolicy.
            let serial: Vec<f32> = (0..41)
                .map(|r| rtm_tensor::simd::dot(w.row(r), &x))
                .collect();
            for exec in pools() {
                let mut y = vec![f32::NAN; 41];
                exec.gemv_dense_into(&w, &x, &mut y).unwrap();
                assert_eq!(y, serial, "seed {seed}");
            }
        }
    }

    #[test]
    fn batched_spmm_lanes_match_serial_spmv_bit_exact() {
        // The dense member of the batched engine's contract (the sparse
        // formats run it inside `check`): for every thread count, lane j
        // of the pooled GEMM equals the serial GEMV of lane j's column.
        for seed in 0..3u64 {
            let w = bsp_random(64, 48, 4, 4, 0.3, 0.8, seed);
            for b in [1usize, 3, 8] {
                let xs = input(48 * b, seed + 200);
                for exec in pools() {
                    let mut yd = vec![f32::NAN; 64 * b];
                    exec.gemm_dense_into(&w, &xs, b, &mut yd).unwrap();
                    for j in 0..b {
                        let col: Vec<f32> = (0..48).map(|i| xs[i * b + j]).collect();
                        let mut want = vec![f32::NAN; 64];
                        rtm_tensor::gemm::gemv_into(&w, &col, &mut want).unwrap();
                        for r in 0..64 {
                            assert_eq!(yd[r * b + j], want[r], "lane {j} row {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fully_pruned_rows_stay_zero() {
        // Rows 8..16 entirely pruned; outputs there must be exactly 0.
        let w = Matrix::from_fn(16, 16, |r, c| {
            if r < 8 && c % 4 == 0 {
                1.0 + r as f32
            } else {
                0.0
            }
        });
        let m = BspcMatrix::from_dense(&w, 4, 4).unwrap();
        let x = input(16, 3);
        let serial = m.spmv(&x).unwrap();
        for exec in pools() {
            let y = pooled_spmv(&exec, &m, &x);
            assert_eq!(y, serial);
            assert!(y[8..].iter().all(|&v| v == 0.0), "pruned rows zeroed");
        }
    }

    #[test]
    fn single_reorder_group_still_splits() {
        // Every row shares one pattern: a single reorder group. The
        // partition must still cut inside the group (same-cost rows).
        let w = Matrix::from_fn(32, 32, |_, c| if c % 3 == 0 { 2.0 } else { 0.0 });
        let m = BspcMatrix::from_dense(&w, 1, 1).unwrap();
        let x = input(32, 9);
        let serial = m.spmv(&x).unwrap();
        for exec in pools() {
            assert_eq!(pooled_spmv(&exec, &m, &x), serial);
            if exec.threads() > 1 {
                let p = exec.partition(&m);
                assert_eq!(p, exec.partition_bspc(&m), "the forward is the generic one");
                assert!(p.len() > 1, "chunking must split inside the group");
                assert!((p.imbalance() - 1.0).abs() < 0.5);
            }
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let w = Matrix::from_fn(3, 12, |_, c| if c < 6 { 1.0 } else { 0.0 });
        let m = BspcMatrix::from_dense(&w, 1, 2).unwrap();
        let c = CsrMatrix::from_dense(&w);
        let x = input(12, 4);
        let exec = Executor::new(8);
        assert_eq!(pooled_spmv(&exec, &m, &x), m.spmv(&x).unwrap());
        assert_eq!(pooled_spmv(&exec, &c, &x), c.spmv(&x).unwrap());
        let mut y = vec![f32::NAN; 3];
        exec.gemv_dense_into(&w, &x, &mut y).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_and_all_zero_matrices() {
        // All-zero matrix: BSPC keeps no rows at all.
        let w = Matrix::zeros(8, 8);
        let m = BspcMatrix::from_dense(&w, 2, 2).unwrap();
        let x = vec![1.0f32; 8];
        for exec in pools() {
            assert_eq!(pooled_spmv(&exec, &m, &x), vec![0.0; 8]);
        }
        // Zero-row matrix.
        let empty = Matrix::zeros(0, 4);
        let ec = CsrMatrix::from_dense(&empty);
        let exec = Executor::new(4);
        assert!(pooled_spmv(&exec, &ec, &[0.0; 4]).is_empty());
        exec.gemv_dense_into(&empty, &[0.0; 4], &mut []).unwrap();
    }

    #[test]
    fn shape_errors_reported() {
        let w = bsp_random(8, 8, 2, 2, 0.5, 1.0, 1);
        let m = BspcMatrix::from_dense(&w, 2, 2).unwrap();
        let exec = Executor::new(2);
        let mut y = vec![0.0; 8];
        assert!(exec
            .spmv_bspc_prec_into(&m, Precision::F32, &[0.0; 7], &mut y)
            .is_err());
        let mut y = vec![0.0; 9];
        assert!(exec
            .spmv_into(&m, Precision::F32, &[0.0; 8], &mut y)
            .is_err());
    }

    #[test]
    fn executor_reuse_across_many_calls() {
        // The pool is persistent: hammer it with many batches and shapes.
        let exec = Executor::new(3);
        for seed in 0..20u64 {
            let rows = 8 + (seed as usize % 5) * 7;
            let w = bsp_random(rows, 24, 2, 3, 0.4, 0.9, seed);
            let m = BspcMatrix::from_dense(&w, 2, 3).unwrap();
            let x = input(24, seed);
            assert_eq!(pooled_spmv(&exec, &m, &x), m.spmv(&x).unwrap());
        }
    }
}
