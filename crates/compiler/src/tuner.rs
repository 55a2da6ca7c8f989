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

/// One measured point of the precision axis: the wall-clock cost of a
/// representative BSPC SpMV executed at that storage precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionCost {
    /// The storage precision that was measured.
    pub precision: rtm_sparse::Precision,
    /// Mean seconds per SpMV sweep (lower is better).
    pub seconds: f64,
}

/// Times the real f32 / f16 / int8 BSPC SpMV kernels on a seeded,
/// BSP-structured `rows × cols` workload partitioned into
/// `stripes × blocks`, and returns one [`PrecisionCost`] per precision
/// (mean of `iters` timed sweeps after one warm-up).
///
/// This is the measurement half of per-layer precision selection: the
/// pipeline measures each distinct layer shape once, then picks the
/// fastest precision per layer with [`select_precision`] — subject to its
/// accuracy gate, which the tuner deliberately knows nothing about.
pub fn measure_precision_costs(
    rows: usize,
    cols: usize,
    stripes: usize,
    blocks: usize,
    iters: usize,
) -> Vec<PrecisionCost> {
    use rtm_sparse::{BspcMatrix, Precision};
    // The tuner records into the same registry it reads: every candidate's
    // measured cost lands as a `tuner.precision_cost_us.<tag>` gauge under
    // one span, so traced pipeline runs show what the precision search saw.
    let _span = rtm_trace::span("tuner.measure_precision_costs");
    let mut rng = rtm_tensor::init::rng_from_seed(0x5eed_cafe);
    let stripes = stripes.max(1);
    let blocks = blocks.max(1);
    let stripe_h = rows.div_ceil(stripes).max(1);
    let block_w = cols.div_ceil(blocks).max(1);
    // A BSP-structured pattern with roughly one kept block in four: the
    // kept-block diagonal wraps, so every stripe and every block column
    // carries weight and the kernel sees realistic gather strides.
    let dense = rtm_tensor::Matrix::from_fn(rows, cols, |r, c| {
        if (r / stripe_h + c / block_w).is_multiple_of(4) {
            ((r * 31 + c * 17) % 1009) as f32 / 1009.0 - 0.5
        } else {
            0.0
        }
    });
    let m = match BspcMatrix::from_dense(&dense, stripes, blocks) {
        Ok(m) => m,
        // Degenerate partitions (more stripes than rows, …) fall back to a
        // 1×1 partition rather than failing the whole tuning run.
        Err(_) => BspcMatrix::from_dense(&dense, 1, 1).expect("1x1 partition is always valid"),
    };
    let x: Vec<f32> = (0..cols).map(|_| rng.gen_f32() * 2.0 - 1.0).collect();
    let mut y = vec![0.0f32; rows];
    let iters = iters.max(1);
    [Precision::F32, Precision::F16, Precision::Int8]
        .into_iter()
        .map(|precision| {
            m.spmv_prec_into(precision, &x, &mut y)
                .expect("measurement shapes agree"); // warm-up
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                m.spmv_prec_into(precision, &x, &mut y)
                    .expect("measurement shapes agree");
                std::hint::black_box(&y);
            }
            let cost = PrecisionCost {
                precision,
                seconds: t0.elapsed().as_secs_f64() / iters as f64,
            };
            if rtm_trace::enabled() {
                let reg = rtm_trace::global();
                reg.gauge_set(
                    &format!("tuner.precision_cost_us.{}", precision.tag()),
                    cost.seconds * 1e6,
                );
                reg.counter_add(rtm_trace::key::TUNER_PRECISION_MEASUREMENTS, 1);
            }
            cost
        })
        .collect()
}

/// Picks the fastest measured precision (lowest finite seconds). Falls
/// back to f32 when `measured` is empty or nothing measured finite —
/// the full-precision kernel is always safe.
pub fn select_precision(measured: &[PrecisionCost]) -> rtm_sparse::Precision {
    measured
        .iter()
        .filter(|m| m.seconds.is_finite())
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite costs"))
        .map_or(rtm_sparse::Precision::F32, |m| m.precision)
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
    fn precision_measurement_covers_all_precisions() {
        use rtm_sparse::Precision;
        let measured = measure_precision_costs(48, 96, 4, 4, 2);
        let precs: Vec<Precision> = measured.iter().map(|m| m.precision).collect();
        assert_eq!(precs, [Precision::F32, Precision::F16, Precision::Int8]);
        for m in &measured {
            assert!(m.seconds.is_finite() && m.seconds > 0.0, "{m:?}");
        }
        // Degenerate partition falls back instead of panicking.
        let tiny = measure_precision_costs(2, 2, 64, 64, 1);
        assert_eq!(tiny.len(), 3);
    }

    #[test]
    fn precision_selection_picks_fastest_and_defaults_to_f32() {
        use rtm_sparse::Precision;
        let costs = [
            PrecisionCost {
                precision: Precision::F32,
                seconds: 3.0,
            },
            PrecisionCost {
                precision: Precision::F16,
                seconds: 2.0,
            },
            PrecisionCost {
                precision: Precision::Int8,
                seconds: 1.0,
            },
        ];
        assert_eq!(select_precision(&costs), Precision::Int8);
        let nan = [PrecisionCost {
            precision: Precision::Int8,
            seconds: f64::NAN,
        }];
        assert_eq!(select_precision(&nan), Precision::F32);
        assert_eq!(select_precision(&[]), Precision::F32);
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
