//! Kernel profiling: lowering a matrix + plan into exact operation and byte
//! counts.
//!
//! A [`KernelProfile`] is the compiler's hand-off to the cost model in
//! `rtm-sim`: how many FMAs the kernel performs, how many weight/index bytes
//! it streams, how many input-vector elements it gathers (after optional
//! redundant-load elimination), and how unbalanced/divergent the work
//! distribution is (after optional matrix reorder). Everything is an exact
//! count derived from the concrete pruned matrix — no sampling.

use crate::plan::{ExecutionPlan, InputPlacement, StorageFormat, Target};
use crate::reorder::{divergence, imbalance, imbalance_round_robin, ReorderPlan};
use rtm_sparse::footprint::Footprint;
use rtm_sparse::{BspcMatrix, CsrMatrix};
use rtm_tensor::Matrix;

/// SIMT warp width used for the divergence metric (Adreno-class wave size).
pub const GPU_WARP: usize = 32;

/// Exact cost-model inputs for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Logical matrix rows.
    pub rows: usize,
    /// Logical matrix columns.
    pub cols: usize,
    /// Stored nonzeros the kernel multiplies.
    pub nnz: usize,
    /// Floating-point operations (2 per multiply-accumulate).
    pub flops: usize,
    /// Bytes of weight values streamed from memory.
    pub value_bytes: usize,
    /// Bytes of structural indices streamed from memory.
    pub index_bytes: usize,
    /// Input-vector elements gathered (after RLE when enabled).
    pub input_loads: usize,
    /// Output-vector elements stored.
    pub output_stores: usize,
    /// Warp-divergence factor ≥ 1 (GPU view of the row-length spread).
    pub divergence_factor: f64,
    /// Thread load-imbalance factor ≥ 1 (CPU view).
    pub imbalance_factor: f64,
    /// Index words decoded on the critical path (CSR pays one per nonzero;
    /// BSPC shares one stream per stripe; dense pays none).
    pub index_decodes: usize,
}

impl KernelProfile {
    /// Analyzes matrix `w` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`ExecutionPlan::validate`].
    pub fn analyze(w: &Matrix, plan: &ExecutionPlan) -> KernelProfile {
        plan.validate().expect("invalid execution plan");
        let (rows, cols) = w.shape();

        // Row costs in execution order (reorder applied when enabled).
        let base_nnz: Vec<usize> = (0..rows)
            .map(|r| w.row(r).iter().filter(|&&v| v != 0.0).count())
            .collect();
        let reorder = if plan.use_reorder {
            Some(ReorderPlan::compute(w, plan.threads))
        } else {
            None
        };
        let exec_nnz: Vec<usize> = match &reorder {
            Some(p) => p.perm.iter().map(|&r| base_nnz[r]).collect(),
            None => base_nnz.clone(),
        };

        let nnz: usize = base_nnz.iter().sum();

        let (stored_nnz, value_bytes, index_bytes, index_decodes, input_loads) = match plan.format {
            StorageFormat::Dense => {
                let fp = Footprint::dense(w, plan.precision);
                let loads = match plan.input_placement {
                    // The input vector is staged once and stays cache/shared
                    // resident across row tiles (it is tiny next to the
                    // weight stream).
                    InputPlacement::Shared => cols,
                    InputPlacement::Global => rows.div_ceil(plan.tile_rows.max(1)) * cols,
                };
                (rows * cols, fp.value_bytes, fp.index_bytes, 0, loads)
            }
            StorageFormat::Csr => {
                let csr = CsrMatrix::from_dense(w);
                let fp = Footprint::csr(&csr, plan.precision);
                // The input vector itself is small and cache-resident, so
                // DRAM-level input traffic is one scattered pass over it;
                // CSR's real tax is the per-nonzero index decode on the
                // dependent-load critical path (§IV-B-b: unstructured
                // sparsity defeats load sharing), charged via
                // `index_decodes`.
                (csr.nnz(), fp.value_bytes, fp.index_bytes, csr.nnz(), cols)
            }
            StorageFormat::Bspc => {
                let stripes = plan.bsp_stripes.min(rows.max(1));
                let blocks = plan.bsp_blocks.min(cols.max(1));
                let bspc =
                    BspcMatrix::from_dense(w, stripes, blocks).expect("partition clamped to shape");
                let fp = Footprint::bspc(&bspc, plan.precision);
                let loads = if plan.use_rle {
                    // With reorder + shared patterns, every thread group
                    // stages each needed input element once; the DRAM-level
                    // traffic is the union of kept columns across stripes.
                    // (Per-run sharing statistics for the ablation bench
                    // come from `rle::analyze_loads` directly.)
                    let mut used = vec![false; cols];
                    for s in 0..bspc.num_stripes() {
                        for &c in bspc.stripe_kept_cols(s) {
                            used[c as usize] = true;
                        }
                    }
                    used.iter().filter(|&&u| u).count()
                } else {
                    bspc.stored_len()
                };
                // One shared index stream per stripe: decode cost is the
                // index words, not one per nonzero.
                (
                    bspc.stored_len(),
                    fp.value_bytes,
                    fp.index_bytes,
                    bspc.index_words(),
                    loads,
                )
            }
        };

        let divergence_factor = match plan.target {
            Target::MobileGpu => divergence(&exec_nnz, GPU_WARP),
            Target::MobileCpu => 1.0,
        };
        // With reorder the runtime deals each pattern group round-robin to
        // the worker threads (balanced by construction); without it each
        // thread takes a contiguous chunk of the original row order.
        let imbalance_factor = if plan.use_reorder {
            imbalance_round_robin(&exec_nnz, plan.threads)
        } else {
            imbalance(&exec_nnz, plan.threads)
        };

        // `nnz` (the true nonzero count) is folded into the divergence and
        // imbalance factors; the stored count drives flops and bytes because
        // dense and BSPC kernels multiply explicit zeros inside the pattern.
        let _ = nnz;
        KernelProfile {
            rows,
            cols,
            nnz: stored_nnz,
            flops: 2 * stored_nnz,
            value_bytes,
            index_bytes,
            input_loads,
            output_stores: rows,
            divergence_factor,
            imbalance_factor,
            index_decodes,
        }
    }

    /// Total bytes moved from memory: weights + indices + input gathers +
    /// output stores, at the plan's precision for values and 4 bytes per
    /// index word.
    pub fn total_bytes(&self, precision_bytes: usize) -> usize {
        self.value_bytes
            + self.index_bytes
            + self.input_loads * precision_bytes
            + self.output_stores * precision_bytes
    }

    /// Arithmetic intensity in FLOPs per byte.
    pub fn arithmetic_intensity(&self, precision_bytes: usize) -> f64 {
        let bytes = self.total_bytes(precision_bytes);
        if bytes == 0 {
            0.0
        } else {
            self.flops as f64 / bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExecutionPlan;

    /// BSP-structured matrix: 4 stripes of 16 rows; stripe s keeps the 8
    /// columns congruent to s mod 8.
    fn bsp_matrix() -> Matrix {
        Matrix::from_fn(64, 64, |r, c| {
            let stripe = r / 16;
            if c % 8 == stripe {
                0.5
            } else {
                0.0
            }
        })
    }

    #[test]
    fn dense_profile_counts() {
        let w = Matrix::filled(64, 64, 1.0);
        let plan = ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations();
        let p = KernelProfile::analyze(&w, &plan);
        assert_eq!(p.nnz, 64 * 64);
        assert_eq!(p.flops, 2 * 64 * 64);
        assert_eq!(p.index_bytes, 0);
        assert_eq!(p.index_decodes, 0);
        assert_eq!(p.output_stores, 64);
        // Shared placement: one x staging per 64-row tile = 1 tile here.
        assert_eq!(p.input_loads, 64);
        assert!((p.divergence_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csr_pays_per_nonzero() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::gpu_default(StorageFormat::Csr);
        let p = KernelProfile::analyze(&w, &plan);
        let nnz = 64 * 8;
        assert_eq!(p.nnz, nnz);
        // CSR's tax is one index decode per nonzero on the dependent-load
        // path; the input vector itself is cache-resident (one scattered
        // pass over its `cols` elements).
        assert_eq!(p.index_decodes, nnz);
        assert_eq!(p.input_loads, 64);
        assert!(p.index_bytes > nnz * 3); // ~4B per nonzero + row ptr
    }

    #[test]
    fn bspc_shares_indices_and_loads() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 8);
        let p = KernelProfile::analyze(&w, &plan);
        let csr = KernelProfile::analyze(&w, &ExecutionPlan::gpu_default(StorageFormat::Csr));
        assert_eq!(p.nnz, csr.nnz, "same stored values");
        assert!(p.index_bytes < csr.index_bytes / 2, "shared index streams");
        assert!(p.index_decodes < csr.index_decodes);
        assert!(
            p.input_loads < csr.input_loads,
            "RLE shares loads: {} vs {}",
            p.input_loads,
            csr.input_loads
        );
    }

    #[test]
    fn rle_toggle_changes_loads() {
        let w = bsp_matrix();
        let with = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 8);
        let mut without = with;
        without.use_rle = false;
        let a = KernelProfile::analyze(&w, &with);
        let b = KernelProfile::analyze(&w, &without);
        assert!(a.input_loads < b.input_loads);
        assert_eq!(a.nnz, b.nnz);
    }

    #[test]
    fn reorder_toggle_changes_divergence() {
        // Alternating heavy/light rows: divergence without reorder, none with.
        let w = Matrix::from_fn(64, 64, |r, c| {
            let heavy = r % 2 == 0;
            if (heavy && c < 32) || (!heavy && c < 2) {
                1.0
            } else {
                0.0
            }
        });
        let with = ExecutionPlan::gpu_default(StorageFormat::Csr);
        let mut without = with;
        without.use_reorder = false;
        let a = KernelProfile::analyze(&w, &with);
        let b = KernelProfile::analyze(&w, &without);
        assert!(
            a.divergence_factor < b.divergence_factor,
            "{} vs {}",
            a.divergence_factor,
            b.divergence_factor
        );
    }

    #[test]
    fn bytes_and_intensity() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(4, 8);
        let p = KernelProfile::analyze(&w, &plan);
        let bytes = p.total_bytes(2);
        assert!(bytes >= p.value_bytes + p.index_bytes);
        let ai = p.arithmetic_intensity(2);
        assert!(ai > 0.0 && ai.is_finite());
        // Pruned SpMV is memory-bound: well under 2 flops/byte.
        assert!(ai < 2.0, "arithmetic intensity {ai}");
    }

    #[test]
    fn cpu_target_uses_imbalance_not_divergence() {
        let w = bsp_matrix();
        let plan = ExecutionPlan::cpu_default(StorageFormat::Bspc).with_bsp_partition(4, 8);
        let p = KernelProfile::analyze(&w, &plan);
        assert!((p.divergence_factor - 1.0).abs() < 1e-12);
        assert!(p.imbalance_factor >= 1.0);
    }
}
