//! The comparison schemes of Table I, each as a one-call wrapper around the
//! shared ADMM engine.
//!
//! | Function | Table I row | Scheme |
//! |---|---|---|
//! | [`prune_unstructured`] | ESE \[19\] | iterative magnitude pruning at arbitrary positions |
//! | [`prune_block_circulant`] | C-LSTM \[20\] | block-circulant weight matrices |
//! | [`prune_bank_balanced`] | BBS \[35\] | per-row bank-balanced sparsity |
//! | [`prune_column_row`] | Wang \[36\] | whole-column + whole-row structured pruning |
//!
//! E-RNN \[37\] is block-circulant with ADMM-optimized per-layer block sizes,
//! implemented by [`prune_block_circulant_tuned`].

use crate::admm::{AdmmConfig, AdmmPruner, Sequence};
use crate::mask::MaskSet;
use crate::projection::{
    BankBalanced, BlockCirculant, ColumnPrune, Projection, RowPrune, UnstructuredMagnitude,
};
use rtm_rnn::GruNetwork;

/// Result of a baseline pruning run.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Scheme label for the result tables.
    pub scheme: &'static str,
    /// Final mask (empty for block-circulant, which transforms values).
    pub mask: MaskSet,
    /// Achieved compression rate counting stored parameters.
    pub achieved_rate: f64,
    /// Stored (distinct) parameter count.
    pub kept_params: usize,
    /// Loss history across ADMM epochs.
    pub loss_history: Vec<f32>,
}

fn support_rate(net: &GruNetwork) -> (f64, usize) {
    let kept = net.nonzero_prunable_params();
    let total = net.total_prunable_params();
    let rate = if kept == 0 {
        f64::INFINITY
    } else {
        total as f64 / kept as f64
    };
    (rate, kept)
}

/// ESE-style non-structured magnitude pruning to an overall `rate`×
/// compression (keeping `1/rate` of the weights), with ADMM retraining.
///
/// # Panics
///
/// Panics if `rate < 1.0`.
pub fn prune_unstructured(
    net: &mut GruNetwork,
    data: &[Sequence],
    rate: f64,
    admm: AdmmConfig,
) -> BaselineReport {
    assert!(rate >= 1.0, "rate must be >= 1");
    let keep = 1.0 / rate;
    let out = AdmmPruner::new(admm).run(net, data, &move |_, _| {
        Box::new(UnstructuredMagnitude::new(keep))
    });
    let (achieved_rate, kept_params) = support_rate(net);
    BaselineReport {
        scheme: "ESE (unstructured magnitude)",
        mask: out.mask,
        achieved_rate,
        kept_params,
        loss_history: out.loss_history,
    }
}

/// BBS-style bank-balanced pruning: every row keeps `1/rate` of its entries
/// in each of `num_banks` banks.
///
/// # Panics
///
/// Panics if `rate < 1.0` or `num_banks == 0`.
pub fn prune_bank_balanced(
    net: &mut GruNetwork,
    data: &[Sequence],
    rate: f64,
    num_banks: usize,
    admm: AdmmConfig,
) -> BaselineReport {
    assert!(rate >= 1.0, "rate must be >= 1");
    let keep = 1.0 / rate;
    let out = AdmmPruner::new(admm).run(net, data, &move |_, w| {
        Box::new(BankBalanced::new(num_banks.min(w.cols().max(1)), keep))
    });
    let (achieved_rate, kept_params) = support_rate(net);
    BaselineReport {
        scheme: "BBS (bank-balanced)",
        mask: out.mask,
        achieved_rate,
        kept_params,
        loss_history: out.loss_history,
    }
}

/// Wang-style coarse structured pruning: whole columns at `col_rate`× and
/// whole rows at `row_rate`×, both via ADMM.
///
/// # Panics
///
/// Panics if either rate is below 1.0.
pub fn prune_column_row(
    net: &mut GruNetwork,
    data: &[Sequence],
    col_rate: f64,
    row_rate: f64,
    admm: AdmmConfig,
) -> BaselineReport {
    assert!(col_rate >= 1.0 && row_rate >= 1.0, "rates must be >= 1");
    let engine = AdmmPruner::new(admm);
    let mut history = Vec::new();
    let col_keep = 1.0 / col_rate;
    let row_keep = 1.0 / row_rate;

    let mask_col = if col_rate > 1.0 {
        let out = engine.run(net, data, &move |_, _| Box::new(ColumnPrune::new(col_keep)));
        history.extend(out.loss_history);
        out.mask
    } else {
        MaskSet::ones_like(net)
    };
    let mask_row = if row_rate > 1.0 {
        let out = engine.run(net, data, &move |_, _| Box::new(RowPrune::new(row_keep)));
        history.extend(out.loss_history);
        out.mask
    } else {
        MaskSet::ones_like(net)
    };
    let mask = mask_col.intersect(&mask_row);
    mask.apply(net);
    let (achieved_rate, kept_params) = support_rate(net);
    BaselineReport {
        scheme: "Wang (column+row structured)",
        mask,
        achieved_rate,
        kept_params,
        loss_history: history,
    }
}

/// C-LSTM-style block-circulant compression with blocks of `block_size`
/// (which is also the per-block compression rate).
///
/// Per the paper's §III-B discussion, the original C-LSTM training cannot
/// use ADMM; here the projection *is* run through the ADMM engine for
/// uniformity, which if anything flatters this baseline.
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn prune_block_circulant(
    net: &mut GruNetwork,
    data: &[Sequence],
    block_size: usize,
    admm: AdmmConfig,
) -> BaselineReport {
    assert!(block_size > 0, "block size must be positive");
    let out = AdmmPruner::new(admm).run(net, data, &move |_, _| {
        Box::new(BlockCirculant::new(block_size))
    });
    // Compression counts distinct stored parameters, not nonzeros.
    let proj = BlockCirculant::new(block_size);
    let mut stored = 0usize;
    let mut total = 0usize;
    for (_, w) in net.prunable() {
        stored += proj.stored_params(w.rows(), w.cols());
        total += w.len();
    }
    BaselineReport {
        scheme: "C-LSTM (block-circulant)",
        mask: out.mask,
        achieved_rate: total as f64 / stored.max(1) as f64,
        kept_params: stored,
        loss_history: out.loss_history,
    }
}

/// E-RNN-style block-circulant compression: per-tensor block-size selection.
///
/// E-RNN \[37\] extends C-LSTM by *optimizing the block size per layer* under
/// a compression constraint. This implementation searches `candidates` for
/// each tensor independently: among block sizes reaching at least
/// `min_rate`× compression on that tensor, it picks the one with the
/// smallest Frobenius projection error, then runs the usual ADMM retraining
/// with the chosen per-tensor projections.
///
/// # Panics
///
/// Panics if `candidates` is empty or `min_rate < 1.0`.
pub fn prune_block_circulant_tuned(
    net: &mut GruNetwork,
    data: &[Sequence],
    candidates: &[usize],
    min_rate: f64,
    admm: AdmmConfig,
) -> BaselineReport {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate block size"
    );
    assert!(min_rate >= 1.0, "rate must be >= 1");

    // Choose a block size per tensor by projection error.
    let mut chosen: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (name, w) in net.prunable() {
        let mut best: Option<(usize, f32)> = None;
        for &b in candidates {
            if b == 0 || b > w.rows().min(w.cols()) {
                continue;
            }
            let proj = BlockCirculant::new(b);
            let rate = w.len() as f64 / proj.stored_params(w.rows(), w.cols()).max(1) as f64;
            if rate + 1e-9 < min_rate {
                continue;
            }
            let err = w
                .zip_map(&proj.project(w), |a, z| (a - z) * (a - z))
                .expect("same shape")
                .sum()
                .sqrt();
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((b, err));
            }
        }
        // Fall back to the largest candidate when none meets the rate
        // (narrow tensors): maximal compression is the E-RNN tie-break.
        let pick = best.map(|(b, _)| b).unwrap_or_else(|| {
            *candidates
                .iter()
                .filter(|&&b| b <= w.rows().min(w.cols()).max(1))
                .max()
                .unwrap_or(&1)
        });
        chosen.insert(name, pick);
    }

    let table = chosen.clone();
    let out = AdmmPruner::new(admm).run(net, data, &move |name, _| {
        Box::new(BlockCirculant::new(*table.get(name).unwrap_or(&1)))
    });

    let mut stored = 0usize;
    let mut total = 0usize;
    for (name, w) in net.prunable() {
        let b = chosen[&name];
        stored += BlockCirculant::new(b).stored_params(w.rows(), w.cols());
        total += w.len();
    }
    BaselineReport {
        scheme: "E-RNN (tuned block-circulant)",
        mask: out.mask,
        achieved_rate: total as f64 / stored.max(1) as f64,
        kept_params: stored,
        loss_history: out.loss_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_rnn::{GruNetwork, NetworkConfig};

    fn net(seed: u64) -> GruNetwork {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 8,
                hidden_dims: vec![16],
                num_classes: 2,
            },
            seed,
        )
    }

    fn oneshot() -> AdmmConfig {
        AdmmConfig {
            admm_iterations: 1,
            epochs_per_iteration: 0,
            finetune_epochs: 0,
            ..AdmmConfig::default()
        }
    }

    #[test]
    fn unstructured_hits_target_rate() {
        let mut m = net(1);
        let r = prune_unstructured(&mut m, &[], 8.0, oneshot());
        assert!(
            (r.achieved_rate - 8.0).abs() < 0.5,
            "rate {}",
            r.achieved_rate
        );
        assert_eq!(r.scheme, "ESE (unstructured magnitude)");
        assert!(!r.mask.is_empty());
    }

    #[test]
    fn bank_balanced_rows_are_balanced() {
        let mut m = net(2);
        let r = prune_bank_balanced(&mut m, &[], 4.0, 4, oneshot());
        // Narrow input tensors (8 cols / 4 banks = width-2 banks) keep at
        // least one entry per bank, so the achieved rate lands below the
        // nominal 4x — the same rounding effect the paper's rates show.
        assert!(
            r.achieved_rate > 2.5 && r.achieved_rate <= 4.2,
            "rate {}",
            r.achieved_rate
        );
        // Every row of every tensor has the same nnz as its siblings.
        for (name, w) in m.prunable() {
            let nnz0 = w.row(0).iter().filter(|&&v| v != 0.0).count();
            for row in 0..w.rows() {
                let nnz = w.row(row).iter().filter(|&&v| v != 0.0).count();
                assert_eq!(nnz, nnz0, "{name} row {row} unbalanced");
            }
        }
    }

    #[test]
    fn column_row_structure() {
        let mut m = net(3);
        let r = prune_column_row(&mut m, &[], 2.0, 2.0, oneshot());
        assert!(r.achieved_rate > 3.0, "rate {}", r.achieved_rate);
        for (name, w) in m.prunable() {
            // Each column all-zero or dense over surviving rows.
            let kept_rows: Vec<usize> = (0..w.rows())
                .filter(|&row| w.row(row).iter().any(|&v| v != 0.0))
                .collect();
            assert_eq!(kept_rows.len(), w.rows() / 2, "{name} rows");
            for c in 0..w.cols() {
                let states: Vec<bool> = kept_rows.iter().map(|&row| w[(row, c)] != 0.0).collect();
                assert!(states.windows(2).all(|p| p[0] == p[1]), "{name} col {c}");
            }
        }
    }

    #[test]
    fn block_circulant_rate_near_block_size() {
        let mut m = net(4);
        let r = prune_block_circulant(&mut m, &[], 8, oneshot());
        // All tensors are 16x8 or 16x16, divisible by 8 -> rate == 8 exactly.
        assert!(
            (r.achieved_rate - 8.0).abs() < 1e-9,
            "rate {}",
            r.achieved_rate
        );
        assert!(r.mask.is_empty(), "circulant has no mask");
    }

    #[test]
    fn tuned_block_circulant_meets_rate_with_least_error() {
        let mut m = net(6);
        let r = prune_block_circulant_tuned(&mut m, &[], &[4, 8, 16], 4.0, oneshot());
        assert_eq!(r.scheme, "E-RNN (tuned block-circulant)");
        // Every tensor is at least 4x compressed, so the total is too.
        assert!(r.achieved_rate >= 4.0, "rate {}", r.achieved_rate);
        // With error as the objective, the smallest admissible block (4)
        // should dominate, keeping the rate close to 4.
        assert!(r.achieved_rate < 8.5, "rate {}", r.achieved_rate);
        // All u_* tensors are block-circulant at some candidate size.
        let u = &m.layers[0].u_z;
        let mut circulant_at = None;
        'outer: for &b in &[4usize, 8, 16] {
            for d in 0..b {
                let v0 = u[(0, d)];
                for i in 1..b {
                    if (u[(i, (i + d) % b)] - v0).abs() > 1e-5 {
                        continue 'outer;
                    }
                }
            }
            circulant_at = Some(b);
            break;
        }
        assert!(
            circulant_at.is_some(),
            "u_z must be circulant at a candidate size"
        );
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn tuned_circulant_needs_candidates() {
        let mut m = net(7);
        prune_block_circulant_tuned(&mut m, &[], &[], 4.0, oneshot());
    }

    #[test]
    #[should_panic(expected = "rate must be >= 1")]
    fn invalid_rate_rejected() {
        let mut m = net(5);
        prune_unstructured(&mut m, &[], 0.5, oneshot());
    }
}
