//! Frame-level inference simulation — the Table II / Figure 4 engine.
//!
//! A "frame" follows the paper's accounting: [`GruWorkload`] evaluates
//! `timesteps_per_frame` GRU steps with weight-stationary batching — the
//! weight and index streams are read from DRAM once per frame, while
//! input gathers, output stores and arithmetic scale with the timestep
//! count. Each fused matrix is one kernel launch per frame.
//!
//! [`InferenceSim::run_frame`] prices every kernel through the device model
//! and aggregates time, GOP/s and ESE-normalized energy efficiency — one
//! call per (compression rate × target) cell of Table II.

use crate::device::{CpuModel, GpuModel, KernelCost};
use crate::ese::EseReference;
use crate::workload::GruWorkload;
use rtm_compiler::plan::{ExecutionPlan, StorageFormat, Target};
use rtm_compiler::profile::KernelProfile;

/// Aggregated cost of one inference frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameReport {
    /// Latency in microseconds.
    pub time_us: f64,
    /// Giga-operations executed per frame.
    pub gop: f64,
    /// Effective throughput in GOP/s.
    pub gop_per_s: f64,
    /// Energy per frame in microjoules.
    pub energy_uj: f64,
    /// Energy efficiency normalized by the ESE FPGA reference
    /// (frames per unit energy relative to ESE's).
    pub efficiency_vs_ese: f64,
    /// Kernel launches per frame.
    pub kernels: usize,
    /// Fraction of kernels that were memory-bound.
    pub memory_bound_fraction: f64,
}

/// The frame-level simulator: device models plus the ESE reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceSim {
    /// GPU model (fp16 path).
    pub gpu: GpuModel,
    /// CPU model (fp32 path).
    pub cpu: CpuModel,
    /// Energy normalization reference.
    pub ese: EseReference,
}

impl Default for InferenceSim {
    fn default() -> InferenceSim {
        InferenceSim::new()
    }
}

/// Per-kernel cost breakdown of one frame — the introspection view behind
/// [`FrameReport`], used by the trace ablation and for debugging the cost
/// model itself.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameTrace {
    /// One entry per kernel launch: `(label, cost)` in execution order.
    pub kernels: Vec<(String, KernelCost)>,
}

impl FrameTrace {
    /// Renders an aligned text table of the breakdown.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "kernel", "compute us", "memory us", "overhead us", "total us", "KiB moved"
        );
        for (label, c) in &self.kernels {
            let _ = writeln!(
                s,
                "{:<14} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>12.1}",
                label,
                c.compute_us,
                c.memory_us,
                c.overhead_us,
                c.total_us(),
                c.bytes as f64 / 1024.0
            );
        }
        s
    }
}

impl InferenceSim {
    /// Simulator with the Snapdragon-855-class models and the paper's ESE
    /// constants.
    pub fn new() -> InferenceSim {
        InferenceSim {
            gpu: GpuModel::adreno640(),
            cpu: CpuModel::kryo485(),
            ese: EseReference::paper(),
        }
    }

    /// Like [`InferenceSim::run_frame`] but also returns the per-kernel
    /// breakdown.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn run_frame_traced(
        &self,
        workload: &GruWorkload,
        plan: &ExecutionPlan,
    ) -> (FrameReport, FrameTrace) {
        let report = self.run_frame(workload, plan);
        let t = workload.timesteps_per_frame.max(1);
        let mut kernels = Vec::with_capacity(workload.matrices.len());
        for (i, m) in workload.matrices.iter().enumerate() {
            let mut profile = KernelProfile::analyze(m, plan);
            scale_timesteps(&mut profile, t, plan.format);
            let cost = match plan.target {
                Target::MobileGpu => self.gpu.kernel_cost(&profile, plan),
                Target::MobileCpu => self.cpu.kernel_cost(&profile, plan),
            };
            let label = format!("layer{}.{}", i / 2, if i % 2 == 0 { "Wx" } else { "Uh" });
            kernels.push((label, cost));
        }
        (report, FrameTrace { kernels })
    }

    /// Prices one inference frame of `workload` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn run_frame(&self, workload: &GruWorkload, plan: &ExecutionPlan) -> FrameReport {
        self.run_frame_batched(workload, plan, 1)
    }

    /// Prices one *batched* inference frame: `streams` independent
    /// utterances advance one frame each through a single weight-stationary
    /// pass (the SpMM runtime). Arithmetic, input gathers and output stores
    /// scale with the stream count; weight values, index streams and kernel
    /// launches are paid once per batch — the same amortization
    /// `scale_timesteps` applies across timesteps, applied across lanes.
    ///
    /// `streams == 1` is exactly [`InferenceSim::run_frame`]. The report
    /// covers the whole batch: divide `time_us` by `streams` for the
    /// per-stream cost.
    ///
    /// # Panics
    ///
    /// Panics if `streams == 0` or the plan is invalid.
    pub fn run_frame_batched(
        &self,
        workload: &GruWorkload,
        plan: &ExecutionPlan,
        streams: usize,
    ) -> FrameReport {
        assert!(streams > 0, "need at least one stream");
        let t = workload.timesteps_per_frame.max(1);
        let mut costs = Vec::with_capacity(workload.matrices.len());
        for m in &workload.matrices {
            let mut profile = KernelProfile::analyze(m, plan);
            scale_timesteps(&mut profile, t, plan.format);
            scale_streams(&mut profile, streams);
            let cost = match plan.target {
                Target::MobileGpu => self.gpu.kernel_cost(&profile, plan),
                Target::MobileCpu => self.cpu.kernel_cost(&profile, plan),
            };
            costs.push(cost);
        }

        let time_us = KernelCost::sequential_total_us(&costs);
        let flops: usize = costs.iter().map(|c| c.flops).sum();
        let gop = flops as f64 / 1e9;
        let energy_uj = match plan.target {
            Target::MobileGpu => self.gpu.energy_uj(time_us),
            Target::MobileCpu => self.cpu.energy_uj(time_us),
        };
        let memory_bound = costs.iter().filter(|c| c.memory_bound()).count();

        FrameReport {
            time_us,
            gop,
            gop_per_s: if time_us > 0.0 {
                gop * 1e6 / time_us
            } else {
                0.0
            },
            energy_uj,
            efficiency_vs_ese: self.ese.normalized_efficiency(energy_uj.max(1e-12)),
            kernels: costs.len(),
            memory_bound_fraction: memory_bound as f64 / costs.len().max(1) as f64,
        }
    }
}

/// Applies weight-stationary timestep batching to a per-step profile:
/// arithmetic, input gathers and output stores repeat every timestep, while
/// the weight values and index *bytes* stream from DRAM once per frame.
/// Index *decodes* repeat per step for CSR (each step re-walks the
/// per-nonzero index stream) but are amortized for BSPC, whose per-stripe
/// shared patterns stay resident.
///
/// The fused GRU kernel's logical output is `3H` gate pre-activations, but
/// those stay in registers/shared memory: the input-side kernel feeds the
/// recurrent kernel on-chip and only the recurrent kernel writes the
/// `H`-wide hidden vector to DRAM each step. Per layer that is `H` stores
/// across two kernels of `3H` logical rows each, i.e. rows/6 per kernel.
fn scale_timesteps(profile: &mut KernelProfile, t: usize, format: StorageFormat) {
    profile.flops *= t;
    profile.input_loads *= t;
    profile.output_stores = (profile.output_stores / 6).max(1) * t;
    if format == StorageFormat::Csr {
        profile.index_decodes *= t;
    }
}

/// Applies weight-stationary *stream* batching to a frame profile: with `b`
/// utterances sharing each SpMM pass, arithmetic, input gathers and output
/// stores repeat per lane while the weight and index streams (and the
/// launch itself) are read once per batch — each decoded index row is
/// applied to all `b` input columns.
fn scale_streams(profile: &mut KernelProfile, b: usize) {
    profile.flops *= b;
    profile.input_loads *= b;
    profile.output_stores *= b;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload_at(rate_col: f64, rate_row: f64) -> GruWorkload {
        GruWorkload::with_bsp_pattern(40, 1024, 2, rate_col, rate_row, 8, 8, 11)
    }

    #[test]
    fn dense_frame_matches_paper_scale() {
        let sim = InferenceSim::new();
        let w = GruWorkload::paper_dense(1);
        let plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Dense)
            .without_optimizations();
        let r = sim.run_frame(&w, &plan);
        assert!((r.gop - 0.58).abs() < 0.01, "GOP {}", r.gop);
        // Same order of magnitude as the paper's 3590 us (shape match, not
        // absolute): between 1 ms and 10 ms.
        assert!(
            r.time_us > 1000.0 && r.time_us < 10_000.0,
            "time {}",
            r.time_us
        );
        assert_eq!(r.kernels, 4);
        assert!(r.memory_bound_fraction > 0.9, "dense GEMV is memory-bound");
    }

    #[test]
    fn time_falls_monotonically_with_compression() {
        let sim = InferenceSim::new();
        let rates = [
            (1.0, 1.0),
            (10.0, 1.0),
            (16.0, 2.0),
            (20.0, 8.0),
            (20.0, 16.0),
        ];
        let mut prev = f64::INFINITY;
        for &(c, r) in &rates {
            let w = workload_at(c, r);
            let plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc);
            let rep = sim.run_frame(&w, &plan);
            assert!(
                rep.time_us < prev,
                "time must fall with compression: {} at ({c},{r})",
                rep.time_us
            );
            prev = rep.time_us;
        }
    }

    #[test]
    fn gop_per_s_falls_with_compression() {
        // Table II: GOP/s decreases as the workload becomes memory/overhead
        // bound at high compression.
        let sim = InferenceSim::new();
        let dense = sim.run_frame(
            &GruWorkload::paper_dense(3),
            &rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Dense)
                .without_optimizations(),
        );
        let pruned = sim.run_frame(
            &workload_at(20.0, 16.0),
            &rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc),
        );
        assert!(
            pruned.gop_per_s < dense.gop_per_s,
            "pruned {} vs dense {}",
            pruned.gop_per_s,
            dense.gop_per_s
        );
    }

    #[test]
    fn efficiency_rises_with_compression() {
        let sim = InferenceSim::new();
        let dense = sim.run_frame(
            &GruWorkload::paper_dense(3),
            &rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Dense)
                .without_optimizations(),
        );
        let pruned = sim.run_frame(
            &workload_at(20.0, 16.0),
            &rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc),
        );
        assert!(pruned.efficiency_vs_ese > dense.efficiency_vs_ese * 10.0);
        // Headline shape: ~40x over ESE at ~245x compression (±2x band).
        assert!(
            pruned.efficiency_vs_ese > 15.0 && pruned.efficiency_vs_ese < 90.0,
            "efficiency {}",
            pruned.efficiency_vs_ese
        );
    }

    #[test]
    fn gpu_reaches_ese_latency_at_high_compression() {
        // §V-B: "when the compression rate is higher than 245x, RTMobile can
        // outperform in energy efficiency by about 40x compared with ESE
        // while maintaining the same inference time".
        let sim = InferenceSim::new();
        let rep = sim.run_frame(
            &workload_at(20.0, 16.0),
            &rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc),
        );
        let ese = EseReference::paper().time_per_frame_us;
        assert!(
            rep.time_us < ese * 2.0 && rep.time_us > ese * 0.4,
            "GPU at 245x ({} us) should be near ESE's {} us",
            rep.time_us,
            ese
        );
    }

    #[test]
    fn cpu_slower_but_improving() {
        let sim = InferenceSim::new();
        let gpu_plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc);
        let cpu_plan = rtm_compiler::plan::ExecutionPlan::cpu_default(StorageFormat::Bspc);
        for &(c, r) in &[(1.0f64, 1.0f64), (16.0, 2.0), (20.0, 16.0)] {
            let w = workload_at(c, r);
            let g = sim.run_frame(&w, &gpu_plan);
            let cpu = sim.run_frame(&w, &cpu_plan);
            assert!(
                cpu.time_us > g.time_us,
                "CPU must be slower at ({c},{r}): {} vs {}",
                cpu.time_us,
                g.time_us
            );
        }
        // CPU efficiency still crosses ESE's around 10x, as in Table II.
        let w = workload_at(10.0, 1.0);
        let cpu = sim.run_frame(&w, &cpu_plan);
        assert!(
            cpu.efficiency_vs_ese > 0.8,
            "cpu eff {}",
            cpu.efficiency_vs_ese
        );
    }

    #[test]
    fn trace_breakdown_sums_to_frame_total() {
        let sim = InferenceSim::new();
        let w = workload_at(16.0, 2.0);
        let plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc)
            .with_bsp_partition(8, 8);
        let (report, trace) = sim.run_frame_traced(&w, &plan);
        assert_eq!(trace.kernels.len(), report.kernels);
        let sum: f64 = trace.kernels.iter().map(|(_, c)| c.total_us()).sum();
        assert!(
            (sum - report.time_us).abs() < 1e-6,
            "{sum} vs {}",
            report.time_us
        );
        // Labels follow the layer/kernel naming.
        assert_eq!(trace.kernels[0].0, "layer0.Wx");
        assert_eq!(trace.kernels[3].0, "layer1.Uh");
        // Rendering carries the totals.
        let text = trace.render();
        assert!(text.contains("layer1.Uh"));
        assert!(text.contains("total us"));
    }

    #[test]
    fn stream_batching_amortizes_weight_traffic() {
        let sim = InferenceSim::new();
        let w = workload_at(10.0, 1.0);
        for plan in [
            rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc)
                .with_bsp_partition(8, 8),
            rtm_compiler::plan::ExecutionPlan::cpu_default(StorageFormat::Bspc)
                .with_bsp_partition(8, 8),
        ] {
            let single = sim.run_frame(&w, &plan);
            // streams == 1 is exactly the unbatched frame.
            assert_eq!(sim.run_frame_batched(&w, &plan, 1), single);
            let mut prev_per_stream = f64::INFINITY;
            for b in [2usize, 4, 8, 16] {
                let batched = sim.run_frame_batched(&w, &plan, b);
                // Cheaper than b serial frames (weights/index amortized)...
                assert!(
                    batched.time_us < single.time_us * b as f64,
                    "b={b}: {} vs {}",
                    batched.time_us,
                    single.time_us * b as f64
                );
                // ...but not cheaper than the arithmetic lower bound.
                assert!(batched.time_us > single.time_us);
                // Per-stream cost falls monotonically with batch width.
                let per_stream = batched.time_us / b as f64;
                assert!(per_stream < prev_per_stream, "b={b}");
                prev_per_stream = per_stream;
                // The batch does b times the work.
                assert!((batched.gop - single.gop * b as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one stream")]
    fn zero_streams_rejected() {
        let sim = InferenceSim::new();
        let w = workload_at(10.0, 1.0);
        let plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc);
        sim.run_frame_batched(&w, &plan, 0);
    }

    #[test]
    fn speedup_saturates_at_extreme_compression() {
        // Figure 4: the jump from 245x to 301x barely moves the time.
        let sim = InferenceSim::new();
        let plan = rtm_compiler::plan::ExecutionPlan::gpu_default(StorageFormat::Bspc);
        let a = sim.run_frame(&workload_at(20.0, 16.0), &plan);
        let b = sim.run_frame(&workload_at(20.0, 20.0), &plan);
        let gain = a.time_us / b.time_us;
        assert!(
            gain < 1.25,
            "speedup must saturate: 245x->301x gained {gain}"
        );
    }
}
