//! Cost-balanced work partitioning over a format's partition units.
//!
//! The paper's matrix reorder (§IV-B-a) exists so that parallel workers
//! receive *balanced row groups*: rows with the same nonzero pattern cost
//! the same. BSPC's row tiles never leave a stripe, so its units are grouped
//! already and runs of them can be cut at positions that equalize
//! **nonzeros per thread, not rows per thread**: [`Partition::balanced`]
//! over an explicit per-slot cost vector.
//!
//! Chunks are contiguous and non-overlapping, so each maps to a disjoint
//! output range — the property the executor uses to hand every thread its
//! own `&mut` output slice with no locks on the hot path.

/// One thread's contiguous share of the work: slots `start..end` with their
/// summed cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// First work slot (row-tile index for BSPC, row index for CSR/dense).
    pub start: usize,
    /// One past the last work slot.
    pub end: usize,
    /// Total cost (nonzeros) of the slots in this chunk.
    pub cost: usize,
}

impl Chunk {
    /// Number of work slots in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the chunk holds no slots.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A complete cost-balanced split of a work range into per-thread chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    chunks: Vec<Chunk>,
    total_cost: usize,
}

impl Partition {
    /// Splits `costs.len()` slots into at most `threads` contiguous chunks,
    /// cutting where the cumulative cost crosses each thread's even share.
    /// Every produced chunk is non-empty; fewer than `threads` chunks come
    /// back when there are fewer slots than threads (or when one slot
    /// dominates the cost). An all-zero cost vector falls back to an even
    /// split by slot count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn balanced(costs: &[usize], threads: usize) -> Partition {
        assert!(threads > 0, "thread count must be positive");
        let n = costs.len();
        let total: usize = costs.iter().sum();
        let mut chunks = Vec::with_capacity(threads.min(n));
        if n == 0 {
            return Partition {
                chunks,
                total_cost: 0,
            };
        }
        if total == 0 {
            let mut start = 0usize;
            for t in 0..threads {
                let end = (n * (t + 1)) / threads;
                if end > start {
                    chunks.push(Chunk {
                        start,
                        end,
                        cost: 0,
                    });
                    start = end;
                }
            }
            return Partition {
                chunks,
                total_cost: 0,
            };
        }

        let mut start = 0usize;
        let mut prefix = 0usize;
        for t in 0..threads {
            if start >= n {
                break;
            }
            // Cumulative cost this chunk should reach (even shares).
            let target = ((total as u128 * (t as u128 + 1)) / threads as u128) as usize;
            let mut end = start;
            let mut cost = 0usize;
            while end < n {
                let c = costs[end];
                if end > start {
                    let cur = prefix + cost;
                    if cur >= target {
                        break;
                    }
                    // Cut at whichever side of the target is closer.
                    let next = cur + c;
                    if next > target && (next - target) > (target - cur) {
                        break;
                    }
                }
                cost += c;
                end += 1;
            }
            if t == threads - 1 {
                while end < n {
                    cost += costs[end];
                    end += 1;
                }
            }
            prefix += cost;
            chunks.push(Chunk { start, end, cost });
            start = end;
        }
        Partition {
            chunks,
            total_cost: total,
        }
    }

    /// The chunks, in slot order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks (≤ requested threads).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the partition holds no work at all.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Summed cost across all chunks.
    pub fn total_cost(&self) -> usize {
        self.total_cost
    }

    /// Cost of the most loaded chunk (the parallel critical path).
    pub fn max_cost(&self) -> usize {
        self.chunks.iter().map(|c| c.cost).max().unwrap_or(0)
    }

    /// Measured load-imbalance factor: `max chunk cost / mean chunk cost`,
    /// 1.0 when perfectly balanced or when there is no work. This is the
    /// *achieved* imbalance of the actual chunking, as opposed to the
    /// analytic estimates of the compiler's reorder model.
    pub fn imbalance(&self) -> f64 {
        if self.chunks.is_empty() || self.total_cost == 0 {
            return 1.0;
        }
        let mean = self.total_cost as f64 / self.chunks.len() as f64;
        self.max_cost() as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_costs_split_evenly() {
        let costs = vec![8usize; 16];
        let p = Partition::balanced(&costs, 4);
        assert_eq!(p.len(), 4);
        for c in p.chunks() {
            assert_eq!(c.len(), 4);
            assert_eq!(c.cost, 32);
        }
        assert!((p.imbalance() - 1.0).abs() < 1e-12);
        assert_eq!(p.total_cost(), 128);
    }

    #[test]
    fn chunks_are_contiguous_and_cover_everything() {
        let costs: Vec<usize> = (0..37).map(|i| (i * 7) % 13 + 1).collect();
        for threads in [1, 2, 3, 5, 8, 64] {
            let p = Partition::balanced(&costs, threads);
            let mut next = 0usize;
            let mut total = 0usize;
            for c in p.chunks() {
                assert_eq!(c.start, next, "contiguous at {threads} threads");
                assert!(!c.is_empty());
                assert_eq!(c.cost, costs[c.start..c.end].iter().sum::<usize>());
                next = c.end;
                total += c.cost;
            }
            assert_eq!(next, costs.len(), "full coverage at {threads} threads");
            assert_eq!(total, p.total_cost());
        }
    }

    #[test]
    fn balances_nonzeros_not_rows() {
        // 4 heavy slots then 12 light ones: an even-by-rows split would put
        // all the heavy work in the first chunk.
        let mut costs = vec![90usize; 4];
        costs.extend(vec![10usize; 12]);
        let p = Partition::balanced(&costs, 4);
        // The contiguous optimum here is max 180 vs mean 120 (the four
        // heavy slots are adjacent); the cut must achieve it.
        assert!(
            p.imbalance() <= 1.5 + 1e-12,
            "cost-balanced imbalance {}",
            p.imbalance()
        );
        // Even-by-rows would be (4*90) / mean(120) = 3.0.
        let by_rows: Vec<usize> = costs.chunks(4).map(|c| c.iter().sum()).collect();
        let worst = *by_rows.iter().max().unwrap() as f64 * 4.0 / 480.0;
        assert!(worst > 2.9, "sanity: naive split is badly imbalanced");
    }

    #[test]
    fn more_threads_than_slots() {
        let p = Partition::balanced(&[3, 3], 8);
        assert_eq!(p.len(), 2, "at most one chunk per slot");
        assert_eq!(
            p.chunks()[0],
            Chunk {
                start: 0,
                end: 1,
                cost: 3
            }
        );
        assert_eq!(
            p.chunks()[1],
            Chunk {
                start: 1,
                end: 2,
                cost: 3
            }
        );
    }

    #[test]
    fn empty_and_zero_cost_inputs() {
        let p = Partition::balanced(&[], 4);
        assert!(p.is_empty());
        assert_eq!(p.imbalance(), 1.0);

        let z = Partition::balanced(&[0, 0, 0, 0, 0, 0], 3);
        assert_eq!(z.len(), 3, "zero-cost work still splits by slot count");
        assert_eq!(z.total_cost(), 0);
        assert_eq!(z.imbalance(), 1.0);
        let covered: usize = z.chunks().iter().map(Chunk::len).sum();
        assert_eq!(covered, 6);
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_threads_rejected() {
        Partition::balanced(&[1, 2, 3], 0);
    }
}
