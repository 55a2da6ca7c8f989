//! The ADMM pruning engine (paper §III-C, Eqs. (1)–(5)).
//!
//! The constrained problem `min f(W) s.t. W ∈ S` is relaxed to the augmented
//! Lagrangian of Eq. (2) and solved by alternating:
//!
//! 1. **W-update (Eq. 3)** — a few epochs of ordinary training with the
//!    extra quadratic penalty `ρ/2 ‖W − Z + U‖²_F`, whose gradient
//!    `ρ (W − Z + U)` is simply added to each prunable tensor's gradient;
//! 2. **Z-update (Eq. 4)** — the Euclidean projection of `W + U` onto the
//!    constraint set, supplied by a [`Projection`];
//! 3. **U-update (Eq. 5)** — the running dual residual `U += W − Z`.
//!
//! After the outer iterations converge, the network is *hard-pruned* to the
//! final `Z`'s support and fine-tuned with the mask pinned (masked
//! retraining), exactly as Algorithm 1 prescribes. The same engine drives
//! BSP's two steps and every baseline scheme — they differ only in the
//! projection.

use crate::mask::MaskSet;
use crate::projection::Projection;
use rtm_rnn::optimizer::{Adam, GradClip, Optimizer};
use rtm_rnn::GruNetwork;
use rtm_tensor::Matrix;
use std::collections::BTreeMap;

/// One training sequence: frames and per-frame targets.
pub type Sequence = (Vec<Vec<f32>>, Vec<usize>);

/// Hyper-parameters of the ADMM loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmConfig {
    /// Penalty coefficient ρ (per-tensor, uniform).
    pub rho: f32,
    /// Number of outer ADMM iterations (`k` in Eqs. (3)–(5)).
    pub admm_iterations: usize,
    /// W-update epochs per outer iteration.
    pub epochs_per_iteration: usize,
    /// Masked fine-tuning epochs after hard pruning.
    pub finetune_epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Optional global-norm gradient clip.
    pub clip: Option<GradClip>,
}

impl Default for AdmmConfig {
    fn default() -> AdmmConfig {
        AdmmConfig {
            rho: 5.0,
            admm_iterations: 3,
            epochs_per_iteration: 2,
            finetune_epochs: 3,
            lr: 3e-3,
            clip: Some(GradClip::new(5.0)),
        }
    }
}

/// Result of an ADMM pruning run.
#[derive(Debug, Clone)]
pub struct AdmmOutcome {
    /// Final binary masks for mask-style schemes (`None` entries for
    /// value-transforming schemes like block-circulant never appear here;
    /// the whole mask set is empty in that case).
    pub mask: MaskSet,
    /// Mean training loss after each epoch (W-update and fine-tune).
    pub loss_history: Vec<f32>,
    /// Frobenius primal residual `‖W − Z‖` after each outer iteration.
    pub residuals: Vec<f32>,
    /// Relative primal residual `‖W − Z‖ / ‖W‖` after each outer iteration —
    /// the scale-free convergence measure (training grows `‖W‖`, so the
    /// absolute residual alone can rise while ADMM is converging).
    pub relative_residuals: Vec<f32>,
}

/// The ADMM pruning engine. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct AdmmPruner {
    cfg: AdmmConfig,
}

impl AdmmPruner {
    /// Creates an engine with the given hyper-parameters.
    pub fn new(cfg: AdmmConfig) -> AdmmPruner {
        AdmmPruner { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdmmConfig {
        &self.cfg
    }

    /// Runs ADMM pruning of `net` on `data`, building one projection per
    /// prunable tensor via `projection_for(name, tensor)`.
    ///
    /// With empty `data` the W-updates are skipped and the method reduces to
    /// one-shot projection + hard pruning (useful for performance-only
    /// experiments that do not need accuracy).
    pub fn run(
        &self,
        net: &mut GruNetwork,
        data: &[Sequence],
        projection_for: &dyn Fn(&str, &Matrix) -> Box<dyn Projection>,
    ) -> AdmmOutcome {
        // Build per-tensor projections and initialize Z = project(W), U = 0.
        let mut projections: BTreeMap<String, Box<dyn Projection>> = BTreeMap::new();
        let mut z: BTreeMap<String, Matrix> = BTreeMap::new();
        let mut u: BTreeMap<String, Matrix> = BTreeMap::new();
        for (name, w) in net.prunable() {
            let proj = projection_for(&name, w);
            z.insert(name.clone(), proj.project(w));
            u.insert(name.clone(), Matrix::zeros(w.rows(), w.cols()));
            projections.insert(name, proj);
        }

        let mut loss_history = Vec::new();
        let mut residuals = Vec::new();
        let mut relative_residuals = Vec::new();
        let mut opt = Adam::new(self.cfg.lr);

        for _iter in 0..self.cfg.admm_iterations {
            // W-update: train with the augmented-Lagrangian penalty.
            for _epoch in 0..self.cfg.epochs_per_iteration {
                if data.is_empty() {
                    break;
                }
                let mean = self.penalized_epoch(net, data, &z, &u, &mut opt);
                loss_history.push(mean);
            }
            // Z-update and U-update.
            let mut sq_residual = 0.0f32;
            let mut sq_weight = 0.0f32;
            for (_name, w) in net.prunable() {
                sq_weight += w.as_slice().iter().map(|v| v * v).sum::<f32>();
            }
            for (name, w) in net.prunable() {
                let proj = &projections[&name];
                let zu = {
                    let ui = &u[&name];
                    w.zip_map(ui, |a, b| a + b).expect("shapes match")
                };
                let z_new = proj.project(&zu);
                let r = w.zip_map(&z_new, |a, b| a - b).expect("shapes match");
                sq_residual += r.as_slice().iter().map(|v| v * v).sum::<f32>();
                let u_entry = u.get_mut(&name).expect("u initialized");
                *u_entry = zu.zip_map(&z_new, |a, b| a - b).expect("shapes match");
                z.insert(name, z_new);
            }
            residuals.push(sq_residual.sqrt());
            relative_residuals.push(sq_residual.sqrt() / sq_weight.sqrt().max(1e-12));
        }

        // Hard prune: mask-style tensors get masked; value-transforming
        // tensors are replaced by their projection.
        let mut mask_set = MaskSet::new();
        for (name, w) in net.prunable_mut() {
            let proj = &projections[&name];
            match proj.mask(&z[&name]) {
                Some(mask) => {
                    for (wi, mi) in w.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                        *wi *= mi;
                    }
                    mask_set.insert(name, mask);
                }
                None => {
                    *w = z[&name].clone();
                }
            }
        }

        // Masked fine-tuning: keep pruned coordinates at zero (and keep
        // value-transforming tensors on their constraint set) after every
        // optimizer step. The learning rate decays geometrically — hard
        // pruning is a large perturbation and a fixed-lr Adam recovery is
        // noisy across seeds; the decay anneals into the recovered basin.
        let mut ft_opt = Adam::new(self.cfg.lr);
        for epoch in 0..self.cfg.finetune_epochs {
            if data.is_empty() {
                break;
            }
            ft_opt.set_learning_rate(self.cfg.lr * 0.92f32.powi(epoch as i32));
            let mut total = 0.0f32;
            for (frames, targets) in data {
                total +=
                    self.masked_step(net, frames, targets, &mut ft_opt, &mask_set, &projections);
            }
            loss_history.push(total / data.len() as f32);
        }

        AdmmOutcome {
            mask: mask_set,
            loss_history,
            residuals,
            relative_residuals,
        }
    }

    /// One epoch of penalized training; returns the mean data loss.
    ///
    /// The data loss is minimized through the network's own training step
    /// (Adam + optional clipping); the ADMM penalty `ρ/2 ‖W − Z + U‖²` is
    /// applied as a *decoupled* proximal step after each update
    /// (`W -= lr·ρ·(W − Z + U)`), the same decoupling AdamW uses for weight
    /// decay. Folding the penalty into the Adam gradient instead would let
    /// Adam's per-coordinate normalization erase the ρ scaling and stall
    /// convergence toward the constraint set.
    fn penalized_epoch(
        &self,
        net: &mut GruNetwork,
        data: &[Sequence],
        z: &BTreeMap<String, Matrix>,
        u: &BTreeMap<String, Matrix>,
        opt: &mut Adam,
    ) -> f32 {
        // Contraction factor per step toward Z - U; clamp for stability.
        let step = (self.cfg.rho * self.cfg.lr).min(0.9);
        let mut total = 0.0f32;
        for (frames, targets) in data {
            total += net.train_step(frames, targets, opt, self.cfg.clip).loss;

            // Decoupled proximal penalty step.
            for (name, w) in net.prunable_mut() {
                let zi = &z[&name];
                let ui = &u[&name];
                let ws = w.as_mut_slice();
                for ((wv, &zv), &uv) in ws.iter_mut().zip(zi.as_slice()).zip(ui.as_slice()) {
                    *wv -= step * (*wv - zv + uv);
                }
            }
        }
        total / data.len().max(1) as f32
    }

    /// One masked training step; returns the data loss.
    fn masked_step(
        &self,
        net: &mut GruNetwork,
        frames: &[Vec<f32>],
        targets: &[usize],
        opt: &mut Adam,
        masks: &MaskSet,
        projections: &BTreeMap<String, Box<dyn Projection>>,
    ) -> f32 {
        let loss = net.train_step(frames, targets, opt, self.cfg.clip).loss;
        masks.apply(net);
        // Re-project value-transforming tensors (those without a mask).
        for (name, w) in net.prunable_mut() {
            if masks.get(&name).is_none() {
                if let Some(proj) = projections.get(&name) {
                    *w = proj.project(w);
                }
            }
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{BlockCirculant, UnstructuredMagnitude};
    use rtm_rnn::{GruNetwork, NetworkConfig};

    fn tiny_net(seed: u64) -> GruNetwork {
        GruNetwork::new(
            &NetworkConfig {
                input_dim: 4,
                hidden_dims: vec![8],
                num_classes: 2,
            },
            seed,
        )
    }

    fn toy_data() -> Vec<Sequence> {
        let a: Vec<Vec<f32>> = (0..5).map(|_| vec![1.0, 1.0, 0.0, 0.0]).collect();
        let b: Vec<Vec<f32>> = (0..5).map(|_| vec![0.0, 0.0, 1.0, 1.0]).collect();
        vec![(a, vec![0; 5]), (b, vec![1; 5])]
    }

    #[test]
    fn one_shot_projection_without_data() {
        let mut net = tiny_net(1);
        let pruner = AdmmPruner::new(AdmmConfig {
            admm_iterations: 1,
            ..AdmmConfig::default()
        });
        let out = pruner.run(&mut net, &[], &|_, _| {
            Box::new(UnstructuredMagnitude::new(0.25))
        });
        // 75% of prunable weights are now zero.
        let sparsity =
            1.0 - net.nonzero_prunable_params() as f64 / net.total_prunable_params() as f64;
        assert!((sparsity - 0.75).abs() < 0.02, "sparsity {sparsity}");
        assert!(!out.mask.is_empty());
        assert!(out.loss_history.is_empty());
        assert_eq!(out.residuals.len(), 1);
    }

    #[test]
    fn mask_matches_network_support() {
        let mut net = tiny_net(3);
        let pruner = AdmmPruner::new(AdmmConfig::default());
        let out = pruner.run(&mut net, &[], &|_, _| {
            Box::new(UnstructuredMagnitude::new(0.5))
        });
        for (name, w) in net.prunable() {
            let mask = out.mask.get(&name).expect("mask exists");
            for (wi, mi) in w.as_slice().iter().zip(mask.as_slice()) {
                if *mi == 0.0 {
                    assert_eq!(*wi, 0.0, "{name}: pruned weight must be zero");
                }
            }
        }
    }

    #[test]
    fn training_under_admm_reduces_loss_and_prunes() {
        let mut net = tiny_net(5);
        let data = toy_data();
        let cfg = AdmmConfig {
            rho: 2.0,
            admm_iterations: 2,
            epochs_per_iteration: 15,
            finetune_epochs: 15,
            lr: 0.01,
            clip: Some(GradClip::new(5.0)),
        };
        let pruner = AdmmPruner::new(cfg);
        let out = pruner.run(&mut net, &data, &|_, _| {
            Box::new(UnstructuredMagnitude::new(0.5))
        });
        assert!(out.loss_history.len() >= 4);
        let first = out.loss_history[0];
        let last = *out.loss_history.last().unwrap();
        assert!(last < first, "loss must fall under ADMM: {first} -> {last}");
        // Final sparsity honours the 50% constraint.
        let sparsity =
            1.0 - net.nonzero_prunable_params() as f64 / net.total_prunable_params() as f64;
        assert!((sparsity - 0.5).abs() < 0.02);
        // Pruned model still classifies the toy task.
        let (frames, targets) = &data[0];
        let preds = net.predict(frames);
        assert_eq!(&preds, targets);
    }

    #[test]
    fn residuals_shrink_over_iterations() {
        let mut net = tiny_net(7);
        let data = toy_data();
        let cfg = AdmmConfig {
            rho: 50.0,
            admm_iterations: 5,
            epochs_per_iteration: 5,
            finetune_epochs: 0,
            lr: 1e-3,
            clip: None,
        };
        let out = AdmmPruner::new(cfg).run(&mut net, &data, &|_, _| {
            Box::new(UnstructuredMagnitude::new(0.3))
        });
        assert_eq!(out.residuals.len(), 5);
        assert_eq!(out.relative_residuals.len(), 5);
        // The scale-free primal residual trends down (the W iterate
        // approaches the constraint set relative to its own norm).
        assert!(
            out.relative_residuals.last().unwrap() < &out.relative_residuals[0],
            "relative residuals {:?}",
            out.relative_residuals
        );
    }

    #[test]
    fn block_circulant_scheme_keeps_dense_support() {
        let mut net = tiny_net(9);
        let pruner = AdmmPruner::new(AdmmConfig {
            admm_iterations: 1,
            finetune_epochs: 0,
            ..AdmmConfig::default()
        });
        let out = pruner.run(&mut net, &[], &|_, _| Box::new(BlockCirculant::new(4)));
        // No masks produced for a value-transforming scheme.
        assert!(out.mask.is_empty());
        // All u_* tensors (8x8) must now be block-circulant.
        let u = &net.layers[0].u_z;
        for d in 0..4 {
            let v0 = u[(0, d)];
            for i in 1..4 {
                assert!((u[(i, (i + d) % 4)] - v0).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = AdmmConfig::default();
        assert!(cfg.rho > 0.0);
        assert!(cfg.admm_iterations > 0);
        let pruner = AdmmPruner::new(cfg);
        assert_eq!(pruner.config().admm_iterations, cfg.admm_iterations);
    }
}
