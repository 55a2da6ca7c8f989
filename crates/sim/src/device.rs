//! Device cost models: Adreno-640-class mobile GPU and Kryo-485-class
//! mobile CPU.
//!
//! Both models price a [`KernelProfile`] with a roofline-style formula:
//!
//! ```text
//! time = launch_overhead
//!      + max(compute_time × divergence/imbalance,
//!            streamed_bytes / bandwidth + gathered_bytes / (bandwidth × coalescing)
//!            + index_decodes / decode_rate)
//! ```
//!
//! The parameter values are datasheet-level figures for the Snapdragon 855
//! (fp16 GPU throughput, LPDDR4X bandwidth) with the coalescing and
//! overhead constants chosen once so the *shape* of Table II emerges; they
//! are not fitted per row. All constants are public so the ablation benches
//! can perturb them.

use rtm_compiler::plan::{ExecutionPlan, InputPlacement, StorageFormat};
use rtm_compiler::profile::KernelProfile;

/// Cost breakdown of one kernel launch, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// Arithmetic time (after divergence/imbalance inflation).
    pub compute_us: f64,
    /// Memory time (streams + gathers + index decode).
    pub memory_us: f64,
    /// Fixed dispatch/launch overhead.
    pub overhead_us: f64,
    /// Bytes moved (for energy accounting).
    pub bytes: usize,
    /// FLOPs executed.
    pub flops: usize,
}

impl KernelCost {
    /// Total latency: overhead plus the roofline max of compute and memory.
    pub fn total_us(&self) -> f64 {
        self.overhead_us + self.compute_us.max(self.memory_us)
    }

    /// Whether the kernel is memory-bound.
    pub fn memory_bound(&self) -> bool {
        self.memory_us >= self.compute_us
    }

    /// Accumulates another kernel's cost (sequential execution).
    pub fn accumulate(&mut self, other: &KernelCost) {
        self.compute_us += other.compute_us;
        self.memory_us += other.memory_us;
        self.overhead_us += other.overhead_us;
        self.bytes += other.bytes;
        self.flops += other.flops;
    }

    /// Sequential total across kernels: Σ per-kernel totals.
    pub fn sequential_total_us(costs: &[KernelCost]) -> f64 {
        costs.iter().map(KernelCost::total_us).sum()
    }
}

/// An Adreno-640-class embedded GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Peak fp16 throughput in GFLOP/s.
    pub peak_gflops_f16: f64,
    /// Peak fp32 throughput in GFLOP/s.
    pub peak_gflops_f32: f64,
    /// DRAM bandwidth in GB/s (shared LPDDR4X).
    pub dram_bw_gbs: f64,
    /// Fraction of peak DRAM bandwidth a unit-stride GEMV stream actually
    /// sustains on the device (mobile memory controllers deliver well under
    /// datasheet peak to a single kernel).
    pub stream_efficiency: f64,
    /// Fraction of the *sustained* bandwidth achieved by scattered
    /// (uncoalesced) gathers, e.g. CSR's per-nonzero input indexing.
    pub gather_efficiency: f64,
    /// Index words decoded per microsecond (dependent-load pipeline rate).
    pub index_decode_per_us: f64,
    /// Fixed kernel launch/dispatch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Average active power draw in watts (calibrated from Table II; the
    /// paper's GPU energy-efficiency column is consistent with ≈1.07 W).
    pub power_w: f64,
}

impl GpuModel {
    /// The Adreno 640 instance used throughout the experiments.
    pub fn adreno640() -> GpuModel {
        GpuModel {
            peak_gflops_f16: 900.0,
            peak_gflops_f32: 450.0,
            dram_bw_gbs: 34.0,
            stream_efficiency: 0.18,
            gather_efficiency: 0.25,
            index_decode_per_us: 50_000.0,
            launch_overhead_us: 12.0,
            power_w: 1.07,
        }
    }

    /// Prices one kernel.
    pub fn kernel_cost(&self, profile: &KernelProfile, plan: &ExecutionPlan) -> KernelCost {
        let prec = plan.precision.bytes();
        let peak = match plan.precision {
            rtm_sparse::footprint::Precision::F16 => self.peak_gflops_f16,
            rtm_sparse::footprint::Precision::F32 => self.peak_gflops_f32,
            // Int8 what-if: the GPU's int8 dot rate matches its fp16 rate.
            rtm_sparse::footprint::Precision::Int8 => self.peak_gflops_f16,
        };
        // GFLOP/s == FLOP/ns; FLOPs / (GFLOP/s * 1000) = microseconds.
        let compute_us = profile.flops as f64 / (peak * 1000.0) * profile.divergence_factor;

        // Streamed traffic: weights + indices + outputs move at full
        // bandwidth (unit-stride); input gathers depend on the format.
        let streamed = profile.value_bytes + profile.index_bytes + profile.output_stores * prec;
        let gathered = profile.input_loads * prec;
        let coalescing = match (plan.format, plan.input_placement) {
            // Unstructured CSR gathers are scattered.
            (StorageFormat::Csr, _) => self.gather_efficiency,
            // Shared-memory staging (or dense streaming) is coalesced.
            (_, InputPlacement::Shared) => 1.0,
            (_, InputPlacement::Global) => 0.5,
        };
        // GB/s == bytes/ns; bytes / (GB/s * 1000) = microseconds.
        // Divergent warps serialize their scattered accesses, so the
        // gather and decode terms inflate with the divergence factor —
        // this is the memory-side cost matrix reorder removes (§IV-B-a).
        let bw = self.dram_bw_gbs * self.stream_efficiency;
        let memory_us = streamed as f64 / (bw * 1000.0)
            + gathered as f64 / (bw * 1000.0 * coalescing) * profile.divergence_factor
            + profile.index_decodes as f64 / self.index_decode_per_us * profile.divergence_factor;

        KernelCost {
            compute_us,
            memory_us,
            overhead_us: self.launch_overhead_us,
            bytes: streamed + gathered,
            flops: profile.flops,
        }
    }

    /// Energy in microjoules for a given latency.
    pub fn energy_uj(&self, time_us: f64) -> f64 {
        self.power_w * time_us
    }
}

/// A Kryo-485-class mobile CPU cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Aggregate SIMD fp32 throughput in GFLOP/s across the big cores.
    pub peak_gflops_f32: f64,
    /// DRAM bandwidth in GB/s (shared with the GPU).
    pub dram_bw_gbs: f64,
    /// Sustained fraction of peak bandwidth for unit-stride streams.
    pub stream_efficiency: f64,
    /// Scattered-gather fraction of the sustained bandwidth.
    pub gather_efficiency: f64,
    /// Index words decoded per microsecond.
    pub index_decode_per_us: f64,
    /// Per-kernel thread-pool dispatch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Average active power draw in watts (Table II's CPU column is
    /// consistent with ≈1.9 W).
    pub power_w: f64,
}

impl CpuModel {
    /// The Kryo 485 instance used throughout the experiments.
    pub fn kryo485() -> CpuModel {
        CpuModel {
            peak_gflops_f32: 110.0,
            dram_bw_gbs: 15.0,
            stream_efficiency: 0.36,
            gather_efficiency: 0.35,
            index_decode_per_us: 20_000.0,
            launch_overhead_us: 8.0,
            power_w: 1.9,
        }
    }

    /// Prices one kernel.
    pub fn kernel_cost(&self, profile: &KernelProfile, plan: &ExecutionPlan) -> KernelCost {
        let prec = plan.precision.bytes();
        // Int8 what-if: SDOT-class instructions double the fp32 MAC rate.
        let peak = match plan.precision {
            rtm_sparse::footprint::Precision::Int8 => self.peak_gflops_f32 * 2.0,
            _ => self.peak_gflops_f32,
        };
        let compute_us = profile.flops as f64 / (peak * 1000.0) * profile.imbalance_factor;
        let streamed = profile.value_bytes + profile.index_bytes + profile.output_stores * prec;
        let gathered = profile.input_loads * prec;
        let coalescing = match plan.format {
            StorageFormat::Csr => self.gather_efficiency,
            _ => 1.0,
        };
        // The slowest thread gates the kernel: the imbalance factor
        // inflates both value streaming and gathers (§IV-B-a's "severe load
        // imbalance issue").
        let bw = self.dram_bw_gbs * self.stream_efficiency;
        let memory_us = (streamed as f64 / (bw * 1000.0)
            + gathered as f64 / (bw * 1000.0 * coalescing)
            + profile.index_decodes as f64 / self.index_decode_per_us)
            * profile.imbalance_factor;

        KernelCost {
            compute_us,
            memory_us,
            overhead_us: self.launch_overhead_us,
            bytes: streamed + gathered,
            flops: profile.flops,
        }
    }

    /// Prices one kernel with a *measured* thread-imbalance factor — the
    /// [`rtm_exec::Partition::imbalance`] of the chunking the execution
    /// engine actually builds (see [`measured_imbalance`]) — in place of
    /// the profile's analytic estimate.
    ///
    /// # Panics
    ///
    /// Panics if `measured_imbalance < 1.0` (the slowest thread can never
    /// beat the mean).
    pub fn kernel_cost_measured(
        &self,
        profile: &KernelProfile,
        plan: &ExecutionPlan,
        measured_imbalance: f64,
    ) -> KernelCost {
        assert!(
            measured_imbalance >= 1.0 - 1e-9,
            "imbalance factor must be >= 1"
        );
        let mut measured = profile.clone();
        measured.imbalance_factor = measured_imbalance.max(1.0);
        self.kernel_cost(&measured, plan)
    }

    /// Energy in microjoules for a given latency.
    pub fn energy_uj(&self, time_us: f64) -> f64 {
        self.power_w * time_us
    }
}

/// The execution engine's measured per-thread load imbalance for `w` on
/// `threads` threads: slowest chunk's nonzero count over the mean, using
/// the same cost-balanced contiguous partitioning `rtm-exec` runs with
/// (rather than the analytic row-length-spread estimate in
/// [`KernelProfile`]).
pub fn measured_imbalance(w: &rtm_tensor::Matrix, threads: usize) -> f64 {
    let costs: Vec<usize> = (0..w.rows())
        .map(|r| w.row(r).iter().filter(|&&v| v != 0.0).count())
        .collect();
    let imbalance = rtm_exec::Partition::balanced(&costs, threads).imbalance();
    // Recorded next to the pool's live busy-time gauge
    // (`exec.pool.imbalance`) so a traced run can cross-check the cost
    // model's prediction against what the engine actually measured.
    rtm_trace::gauge(rtm_trace::key::SIM_IMBALANCE, imbalance);
    imbalance
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_compiler::plan::StorageFormat;
    use rtm_tensor::Matrix;

    fn dense_profile(n: usize) -> (KernelProfile, ExecutionPlan) {
        let w = Matrix::filled(n, n, 0.5);
        let plan = ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations();
        (KernelProfile::analyze(&w, &plan), plan)
    }

    #[test]
    fn kernel_cost_arithmetic() {
        let mut a = KernelCost {
            compute_us: 2.0,
            memory_us: 5.0,
            overhead_us: 1.0,
            bytes: 100,
            flops: 200,
        };
        assert_eq!(a.total_us(), 6.0);
        assert!(a.memory_bound());
        let b = KernelCost {
            compute_us: 10.0,
            memory_us: 1.0,
            overhead_us: 1.0,
            bytes: 50,
            flops: 500,
        };
        assert!(!b.memory_bound());
        a.accumulate(&b);
        assert_eq!(a.flops, 700);
        assert_eq!(a.bytes, 150);
        assert_eq!(
            KernelCost::sequential_total_us(&[a, b]),
            a.total_us() + b.total_us()
        );
    }

    #[test]
    fn gpu_dense_large_matrix_is_memory_bound() {
        let (profile, plan) = dense_profile(1024);
        let cost = GpuModel::adreno640().kernel_cost(&profile, &plan);
        // Dense fp16 GEMV: ~0.25 flops/byte, far below the ~26 flops/byte
        // roofline ridge of the 900 GFLOPS / 34 GB/s device.
        assert!(cost.memory_bound());
        assert!(cost.total_us() > cost.overhead_us);
    }

    #[test]
    fn overhead_dominates_tiny_kernels() {
        let (profile, plan) = dense_profile(16);
        let cost = GpuModel::adreno640().kernel_cost(&profile, &plan);
        assert!(cost.overhead_us > cost.compute_us.max(cost.memory_us));
    }

    #[test]
    fn csr_gathers_cost_more_than_bspc() {
        // Same BSP-structured matrix, CSR vs BSPC plans.
        let w = Matrix::from_fn(
            512,
            512,
            |r, c| {
                if c % 16 == (r / 64) % 16 {
                    0.5
                } else {
                    0.0
                }
            },
        );
        let gpu = GpuModel::adreno640();
        let csr_plan = ExecutionPlan::gpu_default(StorageFormat::Csr);
        let bspc_plan = ExecutionPlan::gpu_default(StorageFormat::Bspc).with_bsp_partition(8, 16);
        let csr = gpu.kernel_cost(&KernelProfile::analyze(&w, &csr_plan), &csr_plan);
        let bspc = gpu.kernel_cost(&KernelProfile::analyze(&w, &bspc_plan), &bspc_plan);
        assert!(
            bspc.memory_us < csr.memory_us,
            "bspc {} vs csr {}",
            bspc.memory_us,
            csr.memory_us
        );
        assert!(bspc.total_us() < csr.total_us());
    }

    #[test]
    fn cpu_slower_than_gpu_on_dense() {
        let w = Matrix::filled(1024, 1024, 0.5);
        let gplan = ExecutionPlan::gpu_default(StorageFormat::Dense).without_optimizations();
        let mut cplan = ExecutionPlan::cpu_default(StorageFormat::Dense).without_optimizations();
        cplan.precision = rtm_sparse::footprint::Precision::F32;
        let g = GpuModel::adreno640().kernel_cost(&KernelProfile::analyze(&w, &gplan), &gplan);
        let c = CpuModel::kryo485().kernel_cost(&KernelProfile::analyze(&w, &cplan), &cplan);
        assert!(
            c.total_us() > g.total_us(),
            "cpu {} vs gpu {}",
            c.total_us(),
            g.total_us()
        );
    }

    #[test]
    fn energy_scales_with_time() {
        let gpu = GpuModel::adreno640();
        assert!((gpu.energy_uj(100.0) - 107.0).abs() < 1e-9);
        let cpu = CpuModel::kryo485();
        assert!((cpu.energy_uj(100.0) - 190.0).abs() < 1e-9);
    }

    #[test]
    fn divergence_inflates_compute() {
        let w = Matrix::from_fn(256, 256, |r, c| {
            // Alternating heavy/light rows -> divergence without reorder.
            let heavy = r % 2 == 0;
            if (heavy && c < 128) || (!heavy && c < 2) {
                0.5
            } else {
                0.0
            }
        });
        let with = ExecutionPlan::gpu_default(StorageFormat::Csr);
        let mut without = with;
        without.use_reorder = false;
        let gpu = GpuModel::adreno640();
        let a = gpu.kernel_cost(&KernelProfile::analyze(&w, &with), &with);
        let b = gpu.kernel_cost(&KernelProfile::analyze(&w, &without), &without);
        assert!(a.compute_us < b.compute_us, "reorder cuts compute time");
    }

    #[test]
    fn measured_imbalance_of_uniform_matrix_is_near_one() {
        let w = Matrix::filled(64, 64, 0.5);
        for threads in [1usize, 2, 4, 8] {
            let imb = measured_imbalance(&w, threads);
            assert!((1.0..1.2).contains(&imb), "{threads} threads: {imb}");
        }
    }

    #[test]
    fn measured_imbalance_detects_skew() {
        // One giant row among empty ones: with 4 threads the chunk holding
        // it carries ~4x the mean cost.
        let w = Matrix::from_fn(16, 64, |r, c| if r == 0 && c < 60 { 1.0 } else { 0.0 });
        let imb = measured_imbalance(&w, 4);
        assert!(imb > 2.0, "skewed partition must report imbalance: {imb}");
        assert!((measured_imbalance(&w, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_cost_measured_replaces_analytic_factor() {
        let w = Matrix::from_fn(64, 64, |r, c| if (r + c) % 3 == 0 { 0.5 } else { 0.0 });
        let plan = ExecutionPlan::cpu_default(StorageFormat::Bspc);
        let profile = KernelProfile::analyze(&w, &plan);
        let cpu = CpuModel::kryo485();
        let balanced = cpu.kernel_cost_measured(&profile, &plan, 1.0);
        let skewed = cpu.kernel_cost_measured(&profile, &plan, 2.0);
        assert!((skewed.compute_us / balanced.compute_us - 2.0).abs() < 1e-9);
        assert!(skewed.memory_us > balanced.memory_us);
        // Feeding the engine's own measured factor reproduces kernel_cost.
        let engine = cpu.kernel_cost_measured(&profile, &plan, measured_imbalance(&w, 4));
        assert!(engine.total_us() > 0.0);
    }

    #[test]
    #[should_panic(expected = "imbalance factor must be >= 1")]
    fn kernel_cost_measured_rejects_sub_unit_factor() {
        let (profile, plan) = dense_profile(8);
        CpuModel::kryo485().kernel_cost_measured(&profile, &plan, 0.5);
    }
}
