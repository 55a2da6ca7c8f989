//! The execution-plan IR.
//!
//! An [`ExecutionPlan`] is everything the mobile runtime needs to execute
//! one pruned-matrix kernel: the hardware target, the storage format, the
//! tiling/unrolling configuration, the thread mapping, whether the two
//! compiler optimizations (reorder, RLE) are enabled, the precision, and
//! where the input vector is staged. The auto-tuner searches this space;
//! `rtm-sim` prices concrete plans.

use rtm_sparse::footprint::Precision;
use std::fmt;

/// Which processor of the SoC executes the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// The big-core CPU cluster (Kryo-485-class, SIMD f32).
    MobileCpu,
    /// The embedded GPU (Adreno-640-class, SIMT f16).
    MobileGpu,
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::MobileCpu => write!(f, "mobile-cpu"),
            Target::MobileGpu => write!(f, "mobile-gpu"),
        }
    }
}

/// How the pruned weight matrix is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// Dense row-major (the unpruned baseline).
    Dense,
    /// Compressed sparse row with one index per nonzero.
    Csr,
    /// Block-based Structured Pruning Compact (paper §IV-B-c).
    Bspc,
}

impl fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageFormat::Dense => write!(f, "dense"),
            StorageFormat::Csr => write!(f, "csr"),
            StorageFormat::Bspc => write!(f, "bspc"),
        }
    }
}

/// Where the kernel stages the input feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputPlacement {
    /// Every access goes to device/global memory.
    Global,
    /// The tile's input slice is staged in on-chip shared/local memory
    /// first (GPU) or relied on to stay in L1 (CPU).
    Shared,
}

/// A complete execution configuration for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionPlan {
    /// Hardware target.
    pub target: Target,
    /// Weight storage format.
    pub format: StorageFormat,
    /// Weight/activation precision.
    pub precision: Precision,
    /// Rows per tile (rows assigned to one thread group / core chunk).
    pub tile_rows: usize,
    /// Columns per tile (input-vector slice staged at once).
    pub tile_cols: usize,
    /// Inner-loop unroll factor.
    pub unroll: usize,
    /// Number of hardware threads (CPU) or threads per workgroup (GPU).
    pub threads: usize,
    /// Consecutive rows assigned to one thread — the run length redundant
    /// load elimination shares loads across ("each thread processes
    /// multiple continuous rows", §IV-B-b).
    pub rows_per_thread: usize,
    /// Apply the matrix-reorder optimization.
    pub use_reorder: bool,
    /// Apply redundant load elimination.
    pub use_rle: bool,
    /// Input vector staging.
    pub input_placement: InputPlacement,
    /// BSP stripe count the matrix was pruned with (used to recover the
    /// shared-pattern structure when `format == Bspc`).
    pub bsp_stripes: usize,
    /// BSP block count per stripe.
    pub bsp_blocks: usize,
}

impl ExecutionPlan {
    /// A reasonable default GPU plan: fp16, 32-thread warps, 64-row tiles,
    /// both compiler optimizations on.
    pub fn gpu_default(format: StorageFormat) -> ExecutionPlan {
        ExecutionPlan {
            target: Target::MobileGpu,
            format,
            precision: Precision::F16,
            tile_rows: 64,
            tile_cols: 256,
            unroll: 4,
            threads: 64,
            rows_per_thread: 4,
            use_reorder: true,
            use_rle: true,
            input_placement: InputPlacement::Shared,
            bsp_stripes: 8,
            bsp_blocks: 8,
        }
    }

    /// A reasonable default CPU plan: fp32, 8 threads (the octa-core Kryo),
    /// both compiler optimizations on.
    pub fn cpu_default(format: StorageFormat) -> ExecutionPlan {
        ExecutionPlan {
            target: Target::MobileCpu,
            format,
            precision: Precision::F32,
            tile_rows: 32,
            tile_cols: 512,
            unroll: 8,
            threads: 8,
            rows_per_thread: 16,
            use_reorder: true,
            use_rle: true,
            input_placement: InputPlacement::Shared,
            bsp_stripes: 8,
            bsp_blocks: 8,
        }
    }

    /// Copy with both compiler optimizations disabled (ablation baseline).
    pub fn without_optimizations(mut self) -> ExecutionPlan {
        self.use_reorder = false;
        self.use_rle = false;
        self
    }

    /// Copy with a different storage format.
    pub fn with_format(mut self, format: StorageFormat) -> ExecutionPlan {
        self.format = format;
        self
    }

    /// Copy with the BSP partition the weights were pruned with.
    pub fn with_bsp_partition(mut self, stripes: usize, blocks: usize) -> ExecutionPlan {
        self.bsp_stripes = stripes;
        self.bsp_blocks = blocks;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.tile_rows == 0 || self.tile_cols == 0 {
            return Err("tile dimensions must be positive".into());
        }
        if self.unroll == 0 {
            return Err("unroll factor must be positive".into());
        }
        if self.threads == 0 {
            return Err("thread count must be positive".into());
        }
        if self.rows_per_thread == 0 {
            return Err("rows_per_thread must be positive".into());
        }
        if self.bsp_stripes == 0 || self.bsp_blocks == 0 {
            return Err("BSP partition must be positive".into());
        }
        if self.format == StorageFormat::Dense && self.use_rle {
            // RLE is defined on shared sparse patterns; dense kernels load
            // the whole input anyway.
            return Err("RLE is meaningless for dense storage".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ExecutionPlan::gpu_default(StorageFormat::Bspc)
            .validate()
            .is_ok());
        assert!(ExecutionPlan::cpu_default(StorageFormat::Csr)
            .validate()
            .is_ok());
        // Dense default plans must not claim RLE.
        let dense = ExecutionPlan::gpu_default(StorageFormat::Dense);
        assert!(dense.validate().is_err());
        assert!(dense.without_optimizations().validate().is_ok());
    }

    #[test]
    fn builders_modify_copies() {
        let p = ExecutionPlan::gpu_default(StorageFormat::Bspc);
        let q = p.with_format(StorageFormat::Csr).with_bsp_partition(4, 2);
        assert_eq!(p.format, StorageFormat::Bspc);
        assert_eq!(q.format, StorageFormat::Csr);
        assert_eq!(q.bsp_stripes, 4);
        assert_eq!(q.bsp_blocks, 2);
        let r = p.without_optimizations();
        assert!(!r.use_reorder && !r.use_rle);
        assert!(p.use_reorder && p.use_rle);
    }

    #[test]
    fn validation_catches_zeroes() {
        let mut p = ExecutionPlan::cpu_default(StorageFormat::Csr);
        p.tile_rows = 0;
        assert!(p.validate().is_err());
        let mut p = ExecutionPlan::cpu_default(StorageFormat::Csr);
        p.unroll = 0;
        assert!(p.validate().is_err());
        let mut p = ExecutionPlan::cpu_default(StorageFormat::Csr);
        p.threads = 0;
        assert!(p.validate().is_err());
        let mut p = ExecutionPlan::cpu_default(StorageFormat::Csr);
        p.bsp_blocks = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Target::MobileCpu.to_string(), "mobile-cpu");
        assert_eq!(Target::MobileGpu.to_string(), "mobile-gpu");
        assert_eq!(StorageFormat::Bspc.to_string(), "bspc");
        assert_eq!(StorageFormat::Dense.to_string(), "dense");
        assert_eq!(StorageFormat::Csr.to_string(), "csr");
    }
}
