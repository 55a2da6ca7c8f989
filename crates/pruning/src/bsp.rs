//! BSP — Block-based Structured Pruning (paper §IV-A, Algorithm 1).
//!
//! Training a BSP-compressed model runs two ADMM phases:
//!
//! * **Step 1 — row-based column-block pruning.** The weight matrix is split
//!   into `Numr` row stripes; each stripe is split into `Numc` column
//!   blocks; within each block, structured column pruning (via ADMM) keeps
//!   `1/col_rate` of the columns.
//! * **Step 2 — column-based row pruning.** Whole rows are pruned over the
//!   entire matrix at `1/row_rate`, again via ADMM.
//!
//! The masked weights stay at zero across step 2 (masked gradients), so the
//! two masks compose; the final mask is their intersection, and the network
//! is fine-tuned under it. The resulting pattern is exactly what the BSPC
//! format (`rtm_sparse::BspcMatrix`) stores compactly and what the compiler
//! optimizations exploit.

use crate::admm::{AdmmConfig, AdmmOutcome, AdmmPruner, Sequence};
use crate::mask::MaskSet;
use crate::projection::{BspColumnBlock, RowPrune};
use crate::schedule::CompressionTarget;
use rtm_rnn::GruNetwork;

/// Configuration of a BSP pruning run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspConfig {
    /// Row-stripe count (`Numr`).
    pub num_stripes: usize,
    /// Column-block count per stripe (`Numc`).
    pub num_blocks: usize,
    /// The `(column, row)` compression target.
    pub target: CompressionTarget,
    /// ADMM hyper-parameters shared by both steps.
    pub admm: AdmmConfig,
}

impl Default for BspConfig {
    fn default() -> BspConfig {
        BspConfig {
            num_stripes: 4,
            num_blocks: 4,
            target: CompressionTarget::new(10.0, 1.0),
            admm: AdmmConfig::default(),
        }
    }
}

/// Outcome of a BSP run.
#[derive(Debug, Clone)]
pub struct BspReport {
    /// Final (intersected) mask.
    pub mask: MaskSet,
    /// Achieved overall compression rate (`total / kept`).
    pub achieved_rate: f64,
    /// Surviving parameter count across prunable tensors.
    pub kept_params: usize,
    /// Total prunable parameter count.
    pub total_params: usize,
    /// Concatenated loss history from both ADMM phases.
    pub loss_history: Vec<f32>,
    /// Primal residuals from both phases.
    pub residuals: Vec<f32>,
}

/// Runs the two-step BSP algorithm.
#[derive(Debug, Clone)]
pub struct BspPruner {
    cfg: BspConfig,
}

impl BspPruner {
    /// Creates a pruner.
    ///
    /// # Panics
    ///
    /// Panics if the partition counts are zero.
    pub fn new(cfg: BspConfig) -> BspPruner {
        assert!(
            cfg.num_stripes > 0 && cfg.num_blocks > 0,
            "partition must be positive"
        );
        BspPruner { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BspConfig {
        &self.cfg
    }

    /// Executes Algorithm 1 on `net` over `data` (may be empty for one-shot
    /// structural pruning without accuracy recovery).
    pub fn prune(&self, net: &mut GruNetwork, data: &[Sequence]) -> BspReport {
        let engine = AdmmPruner::new(self.cfg.admm);
        let mut loss_history = Vec::new();
        let mut residuals = Vec::new();

        // Step 1: row-based column-block pruning (skipped at col rate 1).
        let mask1 = if self.cfg.target.col_rate > 1.0 {
            let stripes = self.cfg.num_stripes;
            let blocks = self.cfg.num_blocks;
            let keep = self.cfg.target.col_keep_ratio();
            let out: AdmmOutcome = engine.run(net, data, &move |_name, w| {
                // Clamp the partition to the tensor's actual shape so small
                // matrices (e.g. narrow input weights) still work.
                let s = stripes.min(w.rows().max(1));
                let b = blocks.min(w.cols().max(1));
                Box::new(BspColumnBlock::new(s, b, keep))
            });
            loss_history.extend(out.loss_history);
            residuals.extend(out.residuals);
            out.mask
        } else {
            MaskSet::ones_like(net)
        };

        // Step 2: column-based row pruning over the whole matrix.
        let mask2 = if self.cfg.target.row_rate > 1.0 {
            let keep = self.cfg.target.row_keep_ratio();
            let out = engine.run(net, data, &move |_name, _w| Box::new(RowPrune::new(keep)));
            loss_history.extend(out.loss_history);
            residuals.extend(out.residuals);
            out.mask
        } else {
            MaskSet::ones_like(net)
        };

        let mask = mask1.intersect(&mask2);
        mask.apply(net);

        let kept = net.nonzero_prunable_params();
        let total = net.total_prunable_params();
        BspReport {
            achieved_rate: if kept == 0 {
                f64::INFINITY
            } else {
                total as f64 / kept as f64
            },
            kept_params: kept,
            total_params: total,
            mask,
            loss_history,
            residuals,
        }
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
                hidden_dims: vec![16, 16],
                num_classes: 3,
            },
            seed,
        )
    }

    fn toy_data() -> Vec<Sequence> {
        let mk = |on: usize| -> Vec<Vec<f32>> {
            (0..6)
                .map(|_| {
                    (0..8)
                        .map(|i| if i % 3 == on { 1.0 } else { 0.0 })
                        .collect()
                })
                .collect()
        };
        (0..3).map(|c| (mk(c), vec![c; 6])).collect()
    }

    #[test]
    fn one_shot_structural_rate() {
        let mut m = net(1);
        let cfg = BspConfig {
            num_stripes: 4,
            num_blocks: 4,
            target: CompressionTarget::new(4.0, 2.0),
            admm: AdmmConfig {
                admm_iterations: 1,
                epochs_per_iteration: 0,
                finetune_epochs: 0,
                ..AdmmConfig::default()
            },
        };
        let report = BspPruner::new(cfg).prune(&mut m, &[]);
        // Nominal 8x; block rounding loosens it but it must be well above
        // half the nominal and at most the nominal + rounding slack.
        assert!(
            report.achieved_rate > 4.0 && report.achieved_rate < 16.0,
            "achieved {}",
            report.achieved_rate
        );
        assert_eq!(report.kept_params, m.nonzero_prunable_params());
        assert!(report.total_params > report.kept_params);
    }

    #[test]
    fn col_only_and_row_only_targets() {
        let mut a = net(2);
        let cfg = BspConfig {
            target: CompressionTarget::new(4.0, 1.0),
            admm: AdmmConfig {
                admm_iterations: 1,
                epochs_per_iteration: 0,
                finetune_epochs: 0,
                ..AdmmConfig::default()
            },
            ..BspConfig::default()
        };
        let r = BspPruner::new(cfg).prune(&mut a, &[]);
        assert!(
            (r.achieved_rate - 4.0).abs() < 1.5,
            "col-only {}",
            r.achieved_rate
        );

        let mut b = net(2);
        let cfg = BspConfig {
            target: CompressionTarget::new(1.0, 4.0),
            admm: cfg.admm,
            ..BspConfig::default()
        };
        let r = BspPruner::new(cfg).prune(&mut b, &[]);
        assert!(
            (r.achieved_rate - 4.0).abs() < 1.5,
            "row-only {}",
            r.achieved_rate
        );
    }

    #[test]
    fn row_pruned_rows_are_fully_zero() {
        let mut m = net(3);
        let cfg = BspConfig {
            target: CompressionTarget::new(1.0, 2.0),
            admm: AdmmConfig {
                admm_iterations: 1,
                epochs_per_iteration: 0,
                finetune_epochs: 0,
                ..AdmmConfig::default()
            },
            ..BspConfig::default()
        };
        BspPruner::new(cfg).prune(&mut m, &[]);
        for (name, w) in m.prunable() {
            let mut zero_rows = 0;
            for r in 0..w.rows() {
                let nnz = w.row(r).iter().filter(|&&v| v != 0.0).count();
                assert!(
                    nnz == 0 || nnz == w.cols(),
                    "{name} row {r} must be all-kept or all-pruned, got {nnz}"
                );
                if nnz == 0 {
                    zero_rows += 1;
                }
            }
            assert_eq!(zero_rows, w.rows() / 2, "{name}: half the rows pruned");
        }
    }

    #[test]
    fn block_column_uniformity_after_full_bsp() {
        let mut m = net(4);
        let cfg = BspConfig {
            num_stripes: 4,
            num_blocks: 4,
            target: CompressionTarget::new(4.0, 2.0),
            admm: AdmmConfig {
                admm_iterations: 1,
                epochs_per_iteration: 0,
                finetune_epochs: 0,
                ..AdmmConfig::default()
            },
        };
        BspPruner::new(cfg).prune(&mut m, &[]);
        // u_z is 16x16: stripes of 4 rows, blocks of 4 cols. Within each
        // stripe-block a column is either uniformly kept (on surviving rows)
        // or uniformly zero.
        let w = &m.layers[0].u_z;
        let kept_row = |r: usize| w.row(r).iter().any(|&v| v != 0.0);
        for s in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let col = b * 4 + c;
                    let states: Vec<bool> = (s * 4..(s + 1) * 4)
                        .filter(|&r| kept_row(r))
                        .map(|r| w[(r, col)] != 0.0)
                        .collect();
                    assert!(
                        states.windows(2).all(|p| p[0] == p[1]),
                        "stripe {s} block {b} col {col} not uniform"
                    );
                }
            }
        }
    }

    #[test]
    fn trained_bsp_retains_toy_accuracy() {
        let mut m = net(5);
        let data = toy_data();
        // Dense pre-training so there is accuracy to retain.
        let mut opt = rtm_rnn::Adam::new(0.01);
        for _ in 0..40 {
            for (frames, targets) in &data {
                m.train_step(frames, targets, &mut opt, None);
            }
        }
        let cfg = BspConfig {
            num_stripes: 4,
            num_blocks: 2,
            target: CompressionTarget::new(2.0, 2.0),
            admm: AdmmConfig {
                rho: 2.0,
                admm_iterations: 2,
                epochs_per_iteration: 8,
                finetune_epochs: 15,
                lr: 5e-3,
                clip: Some(rtm_rnn::GradClip::new(5.0)),
            },
        };
        let report = BspPruner::new(cfg).prune(&mut m, &data);
        assert!(report.achieved_rate > 2.0);
        // The pruned-and-finetuned model still solves the toy task.
        let mut correct = 0;
        let mut total = 0;
        for (frames, targets) in &data {
            let preds = m.predict(frames);
            correct += preds.iter().zip(targets).filter(|(p, t)| p == t).count();
            total += targets.len();
        }
        assert!(
            correct as f64 / total as f64 > 0.8,
            "accuracy after BSP: {correct}/{total}"
        );
    }

    #[test]
    fn mask_compression_matches_report() {
        let mut m = net(6);
        let cfg = BspConfig {
            target: CompressionTarget::new(4.0, 1.0),
            admm: AdmmConfig {
                admm_iterations: 1,
                epochs_per_iteration: 0,
                finetune_epochs: 0,
                ..AdmmConfig::default()
            },
            ..BspConfig::default()
        };
        let report = BspPruner::new(cfg).prune(&mut m, &[]);
        assert!((report.mask.compression_rate() - report.achieved_rate).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "partition must be positive")]
    fn zero_partition_rejected() {
        BspPruner::new(BspConfig {
            num_stripes: 0,
            ..BspConfig::default()
        });
    }
}
